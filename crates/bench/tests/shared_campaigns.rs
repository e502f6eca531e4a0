//! The premise the session's shared campaigns rest on: for every program
//! §2 reads, the paper's §2 config (whole program, no CARE) draws what the
//! session's one config draws and gives the same Table 2–4 fields, so
//! Tables 2–4, 10 and 11 may read the O0 reports §5 reads. sblat1, which
//! links a library, is where the premise fails, and shows the check can.

use bench::Session;
use faultsim::InjectionPoint;
use faultsim::{CampaignConfig, CampaignReport, EngineKind, FaultModel, InjectedInto};

/// Tables 2–4's fields of a report: all that §2 reads.
fn manifestation_fields(r: &CampaignReport) -> [[usize; 4]; 3] {
    [[r.benign, r.soft_failure, r.sdc, r.hang], r.signals, r.latency_buckets]
}

/// The points and targets `p`'s campaign draws under `cfg`.
fn draws(p: &bench::PreparedWorkload, cfg: CampaignConfig) -> Vec<(InjectionPoint, InjectedInto)> {
    let r = p.campaign.run(&CampaignConfig { keep_records: true, ..cfg });
    r.records.iter().map(|rec| (rec.point, rec.target)).collect()
}

#[test]
fn section_2_reports_equal_whole_program_runs_of_every_program_without_a_library() {
    let s = Session::new(20, 0xCA2E, EngineKind::Interp);
    let (sblat1, _) = bench::sblat1();
    for model in [FaultModel::SingleBit, FaultModel::DoubleBit] {
        let shared = s.campaign_cfg(model);
        let whole = CampaignConfig { evaluate_care: false, app_only: false, ..shared };
        for (p, r) in s.manifestation(model) {
            let what = format!("{} {model:?}", p.name);
            assert_eq!(draws(p, whole), draws(p, shared), "{what}: draws");
            let fields = manifestation_fields(&p.campaign.run(&whole));
            assert_eq!(fields, manifestation_fields(r), "{what}: Tables 2-4");
        }
        assert_ne!(draws(&sblat1, whole), draws(&sblat1, shared), "sblat1 {model:?}: draws");
    }
}
