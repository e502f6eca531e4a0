//! CI smoke test: the `careserve` campaign server, end to end in one
//! process.
//!
//! Spawns a loopback server, submits a 30-injection CARE coverage campaign
//! on HPCCG over the wire, and asserts the wire report is bit-identical to
//! running the same spec directly on [`faultsim::Campaign`] — the golden
//! equivalence the service promises. A second submit of the same spec must
//! hit the server's prepared-campaign cache. Then a hostile job — an inline
//! module whose `main` counts to `i64::MAX` — must come back as a `failed`
//! frame once its golden run passes [`faultsim::MAX_GOLDEN_STEPS`] (≈ 10 s),
//! hand its admission budget back (the server's cap is 1, so a leak would
//! park the next job forever), and leave the server serving. Last, the same
//! HPCCG spec on the compiled engine must hit the cached campaign (the
//! engine is not part of the key), which then builds its own translation,
//! and still report exactly what the local interpreter run did. The shutdown
//! must drain cleanly with no in-flight budget. Exits nonzero (assert) if
//! any of that regresses.
//!
//! ```sh
//! cargo run --release --example smoke_server
//! ```

use careserve::{submit, CampaignServer, ClientError, JobSpec, ServerConfig, WorkloadSel};
use faultsim::{Campaign, EngineKind};
use tinyir::{Ty, Value};

/// An inline job whose golden run would never end.
fn spinning_spec() -> JobSpec {
    let mut mb = tinyir::builder::ModuleBuilder::new("spin", "spin.c");
    let out = mb.global_zeroed("out", Ty::I64, 1);
    mb.define("main", vec![], Some(Ty::I64), |fb| {
        let outp = fb.global(out);
        fb.for_loop(Value::i64(0), Value::i64(i64::MAX), |fb, i| fb.store(i, outp));
        fb.ret(Some(Value::i64(0)));
    });
    let text = tinyir::display::print_module(&mb.finish());
    let workload =
        WorkloadSel::Inline { text, args: vec![], outputs: vec![("out".to_string(), 8)] };
    JobSpec { workload, injections: 4, ..JobSpec::default() }
}

fn main() {
    let config = ServerConfig { budget_cap: 1, ..ServerConfig::default() };
    let mut handle = CampaignServer::start(config).expect("bind loopback");
    let spec = JobSpec {
        workload: WorkloadSel::Named { name: "hpccg".to_string(), params: vec![] },
        injections: 30,
        seed: 0x5300CE,
        ..JobSpec::default()
    };

    // The same campaign, run directly.
    let workload = careserve::proto::resolve_workload(&spec.workload).expect("hpccg resolves");
    let app = care::compile(&workload.module, spec.opt);
    let campaign = Campaign::prepare(&workload, app, vec![]);
    let local = campaign.run(&spec.campaign_config());
    assert!(local.care_covered > 0, "smoke campaign must cover at least one fault");

    let first = submit(handle.addr(), &spec).expect("first submit");
    assert_eq!(first.report, local, "wire report diverged from the local run");
    let second = submit(handle.addr(), &spec).expect("second submit");
    assert_eq!(second.report, local, "cached campaign diverged from the local run");

    match submit(handle.addr(), &spinning_spec()) {
        Err(ClientError::Failed(detail)) => {
            assert!(detail.contains("golden run of inline exceeds"), "failed otherwise: {detail}")
        }
        other => panic!("a job that never finishes must fail, got {other:?}"),
    }
    let stats = handle.stats();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.inflight_budget, 0, "the discarded job kept its budget");
    let third = submit(handle.addr(), &spec).expect("submit after the failed job");
    assert_eq!(third.report, local, "the job after the failed one diverged from the local run");

    let compiled = JobSpec { engine: EngineKind::Compiled, ..spec.clone() };
    let fourth = submit(handle.addr(), &compiled).expect("compiled submit");
    assert_eq!(fourth.report, local, "the compiled job diverged from the local interp run");

    let stats = handle.stats();
    assert_eq!(stats.jobs_completed, 4, "every honest job must complete");
    assert_eq!(stats.cache_misses, 2, "resubmits must reuse the prepared campaign");
    assert_eq!(stats.cache_hits, 3, "the compiled job must hit the interp jobs' campaign");
    assert_eq!(stats.inflight_budget, 0, "budget leaked after completion");
    handle.shutdown();

    println!(
        "smoke_server: {} injections served bit-identical to the local run \
         ({} covered / {} evaluated), cache hit on resubmit, a never-ending job \
         failed and released its budget, a compiled job matched on the cached \
         campaign, clean shutdown",
        spec.injections, local.care_covered, local.care_evaluated,
    );
}
