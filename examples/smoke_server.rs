//! CI smoke test: the `careserve` campaign server, end to end in one
//! process.
//!
//! Spawns a loopback server, submits a 30-injection CARE coverage campaign
//! on HPCCG over the wire, and asserts the wire report is bit-identical to
//! running the same spec directly on [`faultsim::Campaign`] — the golden
//! equivalence the service promises. A second submit of the same spec must
//! hit the server's prepared-campaign cache, and the shutdown must drain
//! cleanly with no in-flight budget. Exits nonzero (assert) if any of that
//! regresses.
//!
//! ```sh
//! cargo run --release --example smoke_server
//! ```

use careserve::{submit, CampaignServer, JobSpec, ServerConfig, WorkloadSel};
use faultsim::Campaign;

fn main() {
    let mut handle = CampaignServer::start(ServerConfig::default()).expect("bind loopback");
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

    let stats = handle.stats();
    assert_eq!(stats.jobs_completed, 2, "both jobs must complete");
    assert_eq!(stats.cache_misses, 1, "second job must reuse the prepared campaign");
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.inflight_budget, 0, "budget leaked after completion");
    handle.shutdown();

    println!(
        "smoke_server: {} injections served bit-identical to the local run \
         ({} covered / {} evaluated), cache hit on resubmit, clean shutdown",
        spec.injections, local.care_covered, local.care_evaluated,
    );
}
