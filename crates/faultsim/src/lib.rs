//! # faultsim — the instruction-level fault-injection campaign engine
//!
//! Reproduces the paper's two injection methodologies:
//!
//! * §2.1.1 (GDB/Python tool): attach at a random dynamic instruction, flip
//!   bit(s) in its destination operand, run to an outcome, classify as
//!   Benign / Soft Failure (by signal) / SDC / Hang and record the
//!   manifestation latency.
//! * §5.1 (Pin-profiled tool): draw `(I, n)` from the per-static-instruction
//!   execution profile, restrict targets to application code, and for every
//!   SIGSEGV-producing injection re-run under Safeguard to measure CARE's
//!   coverage and recovery time.
//!
//! Campaigns are deterministic in their seed and rayon-parallel across
//! injections.

pub mod campaign;
pub mod injector;
pub mod wire;

pub use campaign::{
    Campaign, CampaignConfig, CampaignReport, CareResult, InjectionRecord, JobControl, NoSink,
    Outcome, RecordSink, Signal, StepSplit, MAX_GOLDEN_STEPS,
};
pub use injector::{FaultModel, InjectedInto, InjectionPoint};
pub use simx::EngineKind;

#[cfg(test)]
mod tests {
    use super::*;
    use care::prelude::*;

    fn scaled(n: usize) -> usize {
        if cfg!(debug_assertions) {
            (n / 3).max(25)
        } else {
            n
        }
    }

    fn small_campaign(level: OptLevel, n: usize, care_eval: bool) -> CampaignReport {
        let n = scaled(n);
        let w = workloads::hpccg::build(3, 3);
        let app = care::compile(&w.module, level);
        let c = Campaign::prepare(&w, app, vec![]);
        let cfg = CampaignConfig {
            injections: n,
            evaluate_care: care_eval,
            app_only: care_eval,
            ..CampaignConfig::default()
        };
        c.run(&cfg)
    }

    #[test]
    fn campaign_classifies_all_outcome_kinds() {
        let n = scaled(150);
        let r = small_campaign(OptLevel::O0, 150, false);
        assert!(
            r.total() * 10 >= n * 9,
            "most injections classified: {} of {n}",
            r.total()
        );
        assert!(r.benign > 0, "some faults vanish");
        assert!(r.soft_failure > 0, "some faults crash");
        // SIGSEGV dominates the soft-failure signals (paper Table 3).
        assert!(
            r.signals[0] * 2 > r.soft_failure,
            "SIGSEGV should be the majority symptom: {:?}",
            r.signals
        );
    }

    #[test]
    fn latency_is_mostly_short(/* paper Table 4: >83% within 50 instrs */) {
        let r = small_campaign(OptLevel::O0, 150, false);
        if r.soft_failure >= 10 {
            assert!(
                r.latency_fraction_within(400) > 0.5,
                "latencies: {:?}",
                r.latency_buckets
            );
        }
    }

    #[test]
    fn care_recovers_a_majority_of_segv_faults() {
        let r = small_campaign(OptLevel::O0, 120, true);
        assert!(r.care_evaluated > 0, "need SIGSEGV injections to evaluate");
        assert!(
            r.coverage() > 0.5,
            "coverage {:.2} over {} SIGSEGV faults (declines: {:?})",
            r.coverage(),
            r.care_evaluated,
            r.declines
        );
        assert!(r.mean_recovery_ms() > 1.0);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let w = workloads::hpccg::build(3, 2);
        let app = care::compile(&w.module, OptLevel::O0);
        let c = Campaign::prepare(&w, app, vec![]);
        let cfg = CampaignConfig { injections: scaled(40), ..CampaignConfig::default() };
        assert_eq!(c.run(&cfg), c.run(&cfg));
    }

    #[test]
    fn double_bit_model_changes_outcome_mix() {
        let w = workloads::hpccg::build(3, 2);
        let app = care::compile(&w.module, OptLevel::O0);
        let c = Campaign::prepare(&w, app, vec![]);
        let single = c.run(&CampaignConfig {
            injections: scaled(80),
            model: FaultModel::SingleBit,
            ..CampaignConfig::default()
        });
        let double = c.run(&CampaignConfig {
            injections: scaled(80),
            model: FaultModel::DoubleBit,
            ..CampaignConfig::default()
        });
        // Appendix A: the double-bit model produces at least as many soft
        // failures (allow slack for small samples).
        assert!(
            double.soft_failure + 8 >= single.soft_failure,
            "single {} vs double {}",
            single.soft_failure,
            double.soft_failure
        );
    }
}
