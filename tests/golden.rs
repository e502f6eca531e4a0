//! Golden-equivalence regression for the campaign engine.
//!
//! The zero-copy snapshot-forking engine (Arc-shared images, paused-process
//! forking at the injection point, campaign-scoped recovery index) must be
//! an *observational no-op*: a fixed-seed campaign produces bit-identical
//! aggregates to the pre-fork engine that rebuilt and re-simulated every
//! protected run from scratch.
//!
//! The expected values below were captured from the old engine (process
//! rebuild + prefix re-simulation) with `cargo run --release --example
//! golden_capture` before the rework landed. If this test fails, the engine
//! changed observable campaign behaviour — that is a bug, not a baseline to
//! refresh. Refresh the constants only for an *intentional* semantic change
//! (new fault model, different sampling), and say so in the commit.

use faultsim::{Campaign, CampaignConfig, CampaignReport, EngineKind, FaultModel};
use opt::OptLevel;
use proptest::prelude::*;
use safeguard::DeclineKind;
use std::sync::OnceLock;

#[test]
fn snapshot_fork_engine_matches_golden_aggregates() {
    let w = workloads::hpccg::build(3, 2);
    let app = care::compile(&w.module, OptLevel::O1);
    let campaign = Campaign::prepare(&w, app, vec![]);
    let r = campaign.run(&CampaignConfig {
        injections: 100,
        model: FaultModel::SingleBit,
        seed: 0xCA2E,
        evaluate_care: true,
        app_only: true,
        ..CampaignConfig::default()
    });

    // Outcome classification (Table 2 aggregates).
    assert_eq!(r.total(), 100);
    assert_eq!(
        (r.benign, r.soft_failure, r.sdc, r.hang),
        (55, 10, 33, 2),
        "outcome buckets diverged from the golden engine"
    );
    // Symptom and latency breakdowns (Tables 3-4).
    assert_eq!(r.signals, [10, 0, 0, 0]);
    assert_eq!(r.latency_buckets, [8, 0, 0, 2]);
    // CARE evaluation (Figures 7 and 9): the forked protected runs must
    // see exactly the state the rebuilt-and-resimulated runs saw.
    assert_eq!(r.care_evaluated, 10);
    assert_eq!(r.care_covered, 6);
    assert_eq!(r.care_survived_with_sdc, 1);
    assert_eq!(r.total_recoveries, 7);
    assert!(
        (r.mean_recovery_ms() - 15.870184).abs() < 1e-6,
        "mean recovery time diverged: {}",
        r.mean_recovery_ms()
    );
    assert_eq!(r.declines.len(), 1);
    assert_eq!(r.declines.get(&DeclineKind::SameAddress), Some(&3));
}

/// The coverage campaign every equivalence test below runs, records kept.
fn records_cfg(injections: usize, seed: u64, engine: EngineKind) -> CampaignConfig {
    CampaignConfig {
        injections,
        model: FaultModel::SingleBit,
        seed,
        evaluate_care: true,
        app_only: true,
        keep_records: true,
        engine,
        ..CampaignConfig::default()
    }
}

/// Run one interpreter campaign with records kept.
fn run_records(campaign: &Campaign, injections: usize, seed: u64) -> CampaignReport {
    campaign.run(&records_cfg(injections, seed, EngineKind::Interp))
}

/// The per-index reference: every injection re-simulates its own prefix
/// through [`Campaign::run_one`], and the report charges each record its
/// own prefix.
fn reference(campaign: &Campaign, cfg: &CampaignConfig) -> CampaignReport {
    CampaignReport::from_records(
        (0..cfg.injections).filter_map(|i| campaign.run_one(cfg, i)).collect(),
    )
}

/// The snapshot trellis must be an observational no-op: for every
/// workload, the per-injection records — injection point, landing site,
/// outcome, manifestation latency, per-stage step split and the full CARE
/// evaluation — are bit-identical to the per-index `run_one` reference at
/// the benchmark seed. Only the *wall-clock shape* may differ (one shared
/// cursor pass instead of N prefix re-runs).
#[test]
fn trellis_records_match_legacy_on_all_workloads() {
    let small: Vec<(&str, workloads::Workload)> = vec![
        ("HPCCG", workloads::hpccg::build(3, 2)),
        ("CoMD", workloads::comd::build(16, 2, 1)),
        ("miniFE", workloads::minife::build(2, 2)),
        ("miniMD", workloads::minimd::build(16, 1)),
        ("GTC-P", workloads::gtcp::build(4, 2, 16, 1)),
    ];
    for (name, w) in small {
        let app = care::compile(&w.module, OptLevel::O1);
        let campaign = Campaign::prepare(&w, app, vec![]);
        let legacy = reference(&campaign, &records_cfg(40, 0xCA2E, EngineKind::Interp));
        let trellis = run_records(&campaign, 40, 0xCA2E);
        assert_eq!(
            legacy.records, trellis.records,
            "{name}: trellis records diverged from the per-index reference"
        );
        assert_eq!(legacy.total(), 40, "{name}: injections went unclassified");
    }
}

/// The parallel cursor pass must be an observational no-op at every pool
/// width: for every workload, a trellis campaign run at 1, 2 and 8 threads
/// (one cursor per populated bracket of the golden-run checkpoint trail,
/// run inline at 1 and concurrently at 2 and 8) produces the same report in
/// full — records, executed steps, snapshots and the number of cursors that
/// ran. Only the wall-clock shape may differ.
#[test]
fn sharded_trellis_matches_single_cursor_on_all_workloads() {
    let small: Vec<(&str, workloads::Workload)> = vec![
        ("HPCCG", workloads::hpccg::build(3, 2)),
        ("CoMD", workloads::comd::build(16, 2, 1)),
        ("miniFE", workloads::minife::build(2, 2)),
        ("miniMD", workloads::minimd::build(16, 1)),
        ("GTC-P", workloads::gtcp::build(4, 2, 16, 1)),
    ];
    for (name, w) in small {
        let app = care::compile(&w.module, OptLevel::O1);
        let campaign = Campaign::prepare(&w, app, vec![]);
        let narrow = rayon::with_threads(1, || run_records(&campaign, 40, 0xCA2E));
        assert!(narrow.cursor_shards > 0, "{name}: no cursor ran");
        for threads in [2usize, 8] {
            let wide = rayon::with_threads(threads, || run_records(&campaign, 40, 0xCA2E));
            assert_eq!(narrow, wide, "{name}: the report moved at {threads} threads");
        }
    }
}

/// A report is a pure function of `(Campaign, CampaignConfig)`: every run
/// agrees in full — records, executed-prefix steps, cursor count — with a
/// quiet run while a second thread holds a `rayon::with_threads` scope of
/// width 1, then 4, open around it (the barrier forces that overlap), so no
/// width another thread pins reaches this one's report.
#[test]
fn report_is_stable_while_another_thread_churns_pool_width() {
    use rayon::prelude::*;
    let w = workloads::hpccg::build(3, 2);
    let campaign = Campaign::prepare(&w, care::compile(&w.module, OptLevel::O1), vec![]);
    let cfg = records_cfg(40, 0xCA2E, EngineKind::Interp);
    let quiet = campaign.run(&cfg);
    let widths = [1usize, 4, 1, 4];
    let overlap = std::sync::Barrier::new(2);
    let churned: Vec<CampaignReport> = std::thread::scope(|scope| {
        scope.spawn(|| {
            let sums: Vec<usize> = widths
                .iter()
                .map(|&width| {
                    rayon::with_threads(width, || {
                        overlap.wait(); // scope open: the main thread runs now
                        let sum = (0..64usize).into_par_iter().map(|i| i).sum();
                        overlap.wait(); // the main thread's run is done
                        sum
                    })
                })
                .collect();
            assert_eq!(sums, [2016; 4]);
        });
        widths
            .iter()
            .map(|_| {
                overlap.wait();
                let run = campaign.run(&cfg);
                overlap.wait();
                run
            })
            .collect()
    });
    for (run, width) in churned.iter().zip(widths) {
        assert_eq!(run, &quiet, "saw another thread's width {width}");
    }
}

/// The compiled direct-threaded engine must be an observational no-op on
/// full campaigns: for every workload, on the trellis *and* through the
/// per-index `run_one` reference, the per-injection records — injection point, landing site, outcome,
/// manifestation latency, step split and the full CARE evaluation — are
/// bit-identical to the interpreter's at the benchmark seed. This is the
/// campaign-level counterpart of the per-budget parity the simx unit tests
/// and the carefuzz `Compiled` pair check.
#[test]
fn compiled_engine_records_match_interpreter_on_all_workloads() {
    let small: Vec<(&str, workloads::Workload)> = vec![
        ("HPCCG", workloads::hpccg::build(3, 2)),
        ("CoMD", workloads::comd::build(16, 2, 1)),
        ("miniFE", workloads::minife::build(2, 2)),
        ("miniMD", workloads::minimd::build(16, 1)),
        ("GTC-P", workloads::gtcp::build(4, 2, 16, 1)),
    ];
    for (name, w) in small {
        let app = care::compile(&w.module, OptLevel::O1);
        let campaign = Campaign::prepare(&w, app, vec![]);
        type Run = fn(&Campaign, &CampaignConfig) -> CampaignReport;
        for (path, run) in [("trellis", Campaign::run as Run), ("run_one", reference)] {
            let interp = run(&campaign, &records_cfg(40, 0xCA2E, EngineKind::Interp));
            let compiled = run(&campaign, &records_cfg(40, 0xCA2E, EngineKind::Compiled));
            assert_eq!(
                interp.records, compiled.records,
                "{name} ({path}): compiled-engine records diverged from the interpreter"
            );
            assert_eq!(
                (interp.steps_prefix, interp.steps_suffix, interp.steps_care),
                (compiled.steps_prefix, compiled.steps_suffix, compiled.steps_care),
                "{name} ({path}): step accounting diverged"
            );
        }
    }
}

/// Converged-suffix pruning must be an observational no-op, and must have
/// happened for that to mean anything: on the five bundled programs at both
/// levels, on both engines and at pool widths 1, 2 and 8, the trellis —
/// whose suffixes stop at the golden state they re-join — writes the records
/// and, but for the prefix it executed once, the report of the per-index
/// `run_one` reference, which consults no golden state, hops nowhere and runs
/// every suffix and every protected run out; and in every one of those
/// campaigns a recorder heard at least one suffix stop that way — and, in the
/// 54 of them where Safeguard covered a SIGSEGV, at least one repaired run.
#[test]
fn pruned_suffixes_match_the_run_out_reference_on_every_program_level_engine_and_shard_count() {
    let mut covered_campaigns = 0;
    for level in [OptLevel::O0, OptLevel::O1] {
        for w in workloads::all() {
            let campaign = Campaign::prepare(&w, care::compile(&w.module, level), vec![]);
            for engine in [EngineKind::Interp, EngineKind::Compiled] {
                let cfg = records_cfg(12, 0xCA2E, engine);
                let legacy = reference(&campaign, &cfg);
                for width in [1usize, 2, 8] {
                    let at = format!("{} at {level:?}, {engine:?}, width {width}", w.name);
                    let rec = telemetry::Recorder::new();
                    let trellis =
                        rayon::with_threads(width, || campaign.run_with_hooks(&cfg, &rec));
                    assert_eq!(legacy.records, trellis.records, "{at}: records diverged");
                    // The report as the trellis built it; only the executed
                    // prefix (and the totals over it) may differ.
                    let trellis = CampaignReport {
                        steps_prefix: legacy.steps_prefix,
                        simulated_steps: legacy.simulated_steps,
                        trellis_snapshots: 0,
                        cursor_shards: 0,
                        ..trellis
                    };
                    assert_eq!(legacy, trellis, "{at}: reports diverged");
                    let heard = rec.drain().counters;
                    let converged = heard.get("suffix.converged").copied();
                    assert!(converged > Some(0), "{at}: no suffix stopped at a golden state");
                    // Nor may the protected runs all have run out: where a
                    // repair put any run back on the golden run (covered), a
                    // repaired run stopped there too. (GTC-P at `-O1` has
                    // none: its one SIGSEGV is declined 4 steps after its
                    // repair.)
                    let repaired = heard.get("care.converged").copied();
                    assert!(
                        trellis.care_covered == 0 || repaired > Some(0),
                        "{at}: no repaired run stopped at a golden state"
                    );
                    covered_campaigns += (trellis.care_covered > 0) as usize;
                }
            }
        }
    }
    assert_eq!(covered_campaigns, 54, "all but GTC-P at -O1 cover a SIGSEGV in 12 injections");
}

/// Telemetry must be a pure observer: running the same fixed-seed campaign
/// with a live [`telemetry::Recorder`] attached yields bit-identical
/// records to the hook-free run, and the recorder's JSONL self-validates.
#[test]
fn telemetry_recorder_does_not_perturb_campaign_records() {
    let w = workloads::hpccg::build(3, 2);
    let app = care::compile(&w.module, OptLevel::O1);
    let campaign = Campaign::prepare(&w, app, vec![]);
    let cfg = records_cfg(40, 0xCA2E, EngineKind::Interp);
    let plain = campaign.run(&cfg);
    let rec = telemetry::Recorder::new();
    let traced = campaign.run_with_hooks(&cfg, &rec);
    assert_eq!(plain.records, traced.records, "a live recorder changed campaign behaviour");
    let report = rec.drain();
    let counts = telemetry::validate_jsonl(&report.to_jsonl())
        .expect("recorder JSONL validates against its own schema");
    assert!(counts.get("counter").copied().unwrap_or(0) > 0);
    assert_eq!(
        report.counters.get("campaign.injections").copied(),
        Some(40),
        "campaign.injections counter disagrees with the config"
    );
}

fn tiny_campaign() -> &'static Campaign {
    static TINY: OnceLock<Campaign> = OnceLock::new();
    TINY.get_or_init(|| {
        let w = workloads::hpccg::build(2, 1);
        let app = care::compile(&w.module, OptLevel::O1);
        Campaign::prepare(&w, app, vec![])
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(debug_assertions) { 8 } else { 24 },
        ..ProptestConfig::default()
    })]

    /// Seed-independence of the trellis/reference equivalence: any seed's
    /// record stream (sampling, outcomes, CARE results, step splits) is
    /// identical on the trellis and through per-index `run_one` calls.
    #[test]
    fn trellis_matches_legacy_at_random_seeds(seed in any::<u64>()) {
        let campaign = tiny_campaign();
        let legacy = reference(campaign, &records_cfg(20, seed, EngineKind::Interp));
        let trellis = run_records(campaign, 20, seed);
        prop_assert_eq!(&legacy.records, &trellis.records);
    }

    /// Fuel/trap-state parity of the compiled engine at arbitrary seeds and
    /// hang budgets: every injection drives the engines through different
    /// trap, out-of-fuel and recovery paths, and the records — outcome,
    /// trap latencies and the CARE step split — must match the interpreter
    /// record for record. (Exhaustive per-budget parity is covered by the
    /// simx unit sweep and the carefuzz `Compiled` pair.)
    #[test]
    fn compiled_matches_interp_at_random_seeds_and_budgets(
        seed in any::<u64>(),
        hang_factor in 1u64..30,
    ) {
        let campaign = tiny_campaign();
        let cfg = CampaignConfig { hang_factor, ..records_cfg(20, seed, EngineKind::Interp) };
        let interp = campaign.run(&cfg);
        let compiled =
            campaign.run(&CampaignConfig { engine: EngineKind::Compiled, ..cfg });
        prop_assert_eq!(&interp.records, &compiled.records);
    }

    /// Pool-width independence of the cursor pass, on both engines: any
    /// width, at any seed and hang budget, yields the report of the
    /// 1-thread pass, which runs the cursors inline in bracket order — and
    /// both are held to the per-index `run_one` reference. Exercises
    /// concurrent hops along the checkpoint trail and the dedup of repeated
    /// injection points.
    #[test]
    fn sharded_cursors_match_at_random_shard_counts(
        seed in any::<u64>(),
        width in 2usize..9,
        hang_factor in 1u64..30,
    ) {
        let campaign = tiny_campaign();
        for engine in [EngineKind::Interp, EngineKind::Compiled] {
            let cfg = CampaignConfig { hang_factor, ..records_cfg(20, seed, engine) };
            let legacy = reference(campaign, &cfg);
            let narrow = rayon::with_threads(1, || campaign.run(&cfg));
            let wide = rayon::with_threads(width, || campaign.run(&cfg));
            prop_assert_eq!(&legacy.records, &narrow.records);
            prop_assert_eq!(&narrow, &wide);
        }
    }
}
