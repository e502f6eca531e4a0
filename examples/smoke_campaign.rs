//! CI smoke test: a 30-injection CARE coverage campaign on HPCCG, checked
//! against the per-index reference.
//!
//! Small enough to finish in seconds on a cold runner, but end-to-end real:
//! compile at O1, run Armor, inject 30 single-bit flips, classify every
//! outcome, and evaluate CARE recovery on the faults that trap. The campaign
//! runs on the snapshot trellis (one shared cursor pass, CoW
//! forks at the pending injection points) and again as 30 `Campaign::run_one`
//! calls (every injection replays its own prefix and runs its suffix and its
//! protected run out, where the trellis starts a hop from a cloned golden
//! state and stops a run at the golden state it re-joins), and the
//! two must agree record for record — the equivalence the trellis promises —
//! with at least one suffix, one repaired run and one hop heard doing so.
//! The campaign is then repeated at 1 and 4 threads, whose reports must agree
//! in full (the concurrent cursors and the work-stealing batches are pure
//! wall-clock optimisations). Exits nonzero (assert) if the pipeline stops
//! covering faults or the trellis diverges from the reference — the
//! regressions a unit suite can miss, because they need the compiler, the
//! interpreter fast path, the campaign engine and Safeguard all working
//! against each other.
//!
//! ```sh
//! cargo run --release --example smoke_campaign
//! cargo run --release --example smoke_campaign -- --engine compiled
//! ```
//!
//! `--engine compiled` runs the same campaign on the direct-threaded
//! compiled backend, which must agree with the interpreter record for
//! record as well.

use faultsim::{Campaign, CampaignConfig, CampaignReport, EngineKind, FaultModel};
use opt::OptLevel;

fn main() {
    let mut engine = EngineKind::Interp;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--engine" => {
                engine =
                    args.next().and_then(|v| v.parse().ok()).expect("--engine interp|compiled");
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    let w = workloads::hpccg::default();
    let app = care::compile(&w.module, OptLevel::O1);
    let campaign = Campaign::prepare(&w, app, vec![]);
    let cfg = CampaignConfig {
        injections: 30,
        model: FaultModel::SingleBit,
        evaluate_care: true,
        app_only: true,
        seed: 0x5300CE,
        keep_records: true,
        engine,
        ..CampaignConfig::default()
    };
    let rec = telemetry::Recorder::new();
    let r = campaign.run_with_hooks(&cfg, &rec);
    let tel = rec.drain();
    let heard = |name: &str| tel.counters.get(name).copied().unwrap_or(0);
    let legacy = CampaignReport::from_records(
        (0..cfg.injections).filter_map(|i| campaign.run_one(&cfg, i)).collect(),
    );
    println!(
        "smoke campaign [{}]: 30 injections on HPCCG -> {} benign, {} soft, {} sdc, {} hang; \
         CARE evaluated {}, covered {}",
        engine.name(),
        r.benign,
        r.soft_failure,
        r.sdc,
        r.hang,
        r.care_evaluated,
        r.care_covered
    );
    println!(
        "trellis: {} snapshots off one cursor pass, {} prefix + {} suffix + {} CARE steps \
         (per-index run_one executed {} steps)",
        r.trellis_snapshots, r.steps_prefix, r.steps_suffix, r.steps_care, legacy.simulated_steps,
    );
    assert_eq!(
        r.benign + r.soft_failure + r.sdc + r.hang,
        30,
        "every injection must be classified"
    );
    assert!(
        r.care_evaluated > 0,
        "no injection trapped — the fault model or injection siting regressed"
    );
    assert!(
        r.care_covered > 0,
        "CARE recovered zero trapped faults — the recovery pipeline regressed"
    );
    assert_eq!(
        r.records, legacy.records,
        "the trellis and per-index run_one must produce identical records"
    );
    // ...and not vacuously: `run_one` runs every suffix out, the trellis
    // stops a suffix at the golden state it has re-joined. Some must have.
    assert!(
        heard("suffix.converged") > 0,
        "no trellis suffix stopped at a golden state — the comparison above held nothing to it"
    );
    println!(
        "suffixes: {} of {} re-joined the golden run after {} comparisons; {} of {} \
         attributed suffix steps never ran",
        heard("suffix.converged"),
        r.records.len(),
        heard("suffix.compares"),
        heard("suffix.pruned_steps"),
        r.steps_suffix,
    );
    // The same for the other two things `run_one` does the long way: it runs
    // every repaired run out, and replays every prefix from the first step.
    assert!(
        heard("care.converged") > 0,
        "no repaired run stopped at a golden state — the CARE records above were held to nothing"
    );
    assert!(heard("cursor.hops") > 0, "the cursor never hopped to a checkpoint");
    println!(
        "protected runs: {} of {} re-joined the golden run after {} comparisons; {} of {} \
         attributed CARE steps never ran",
        heard("care.converged"),
        r.care_evaluated,
        heard("care.compares"),
        heard("care.pruned_steps"),
        r.steps_care,
    );
    println!(
        "cursor: {} hops cloned a checkpoint's golden state; {} armed steps executed for \
         the {} prefix steps the last firing stands at",
        heard("cursor.hops"),
        heard("cursor.window_steps"),
        r.records.iter().map(|rec| rec.split.prefix).max().unwrap_or(0),
    );
    assert_eq!(
        (legacy.benign, legacy.soft_failure, legacy.sdc, legacy.hang),
        (r.benign, r.soft_failure, r.sdc, r.hang),
        "aggregate outcomes diverged from the per-index reference"
    );
    assert!(
        r.simulated_steps < legacy.simulated_steps,
        "the shared cursor pass must execute fewer instructions than \
         per-index prefix replay ({} vs {})",
        r.simulated_steps,
        legacy.simulated_steps
    );
    // Thread-count independence: the concurrent cursors and the
    // work-stealing batches must be invisible in the report — a 1-thread
    // run (inline cursors and suffixes) and a 4-thread run (concurrent
    // cursors, stolen suffixes) agree in full. CI additionally runs this
    // whole example under CARE_THREADS=4.
    let narrow = rayon::with_threads(1, || campaign.run(&cfg));
    let wide = rayon::with_threads(4, || campaign.run(&cfg));
    assert_eq!(narrow, wide, "reports must be identical at 1 and 4 threads");
    println!(
        "threads: 1-thread and 4-thread reports identical ({} cursors, one per populated bracket)",
        narrow.cursor_shards
    );
    println!("smoke campaign OK (trellis agrees with per-index run_one)");
}
