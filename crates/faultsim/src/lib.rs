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
//!
//! The modules, in the order a campaign passes through them: [`injector`]
//! (`(I, n)` selection and the bit-flips), `trail` (the golden run and its
//! checkpoint trail — the one place that knows what a checkpoint holds:
//! profile counts, and the control state and memory lines the golden run
//! changed since the checkpoint before, from which each job rebuilds the
//! golden state at every checkpoint its points reach), `cursor` (the
//! distinct sampled points, grouped once, walked by hopping cursors — each
//! hop cloning the job's golden state at its bracket's start — that fork
//! the process at each point for the suffixes of the injections that drew
//! it), `suffix` (one
//! injection from its fork on: inject, run to an outcome or to the
//! golden state the run re-joins, classify, CARE recovery to its end or to
//! the golden state the repaired run re-joins; the record types and the
//! per-index reference `run_one`), `report` ([`CampaignReport`]),
//! [`campaign`] ([`Campaign`], its configuration, and the `run*` entry
//! points that orchestrate the rest) and [`wire`] (the JSON field lists).

pub mod campaign;
mod cursor;
pub mod injector;
mod report;
mod suffix;
mod trail;
pub mod wire;

pub use campaign::{Campaign, CampaignConfig, JobControl, NoSink, RecordSink, MAX_RECOVERIES};
pub use injector::{FaultModel, InjectedInto, InjectionPoint};
pub use report::CampaignReport;
pub use simx::EngineKind;
pub use suffix::{CareResult, InjectionRecord, Outcome, Signal, StepSplit};
pub use trail::MAX_GOLDEN_STEPS;

#[cfg(test)]
/// Fixtures shared by the crate's unit tests.
pub(crate) mod fixtures {
    use crate::{Campaign, CampaignConfig, CampaignReport, InjectionRecord};
    use opt::OptLevel;
    use workloads::Workload;

    /// `main(n)` runs `n` loop iterations.
    pub(crate) fn tiny_workload(n: u64) -> Workload {
        use tinyir::builder::ModuleBuilder;
        use tinyir::{Ty, Value};
        let mut mb = ModuleBuilder::new("tiny", "tiny.c");
        let out = mb.global_zeroed("out", Ty::I64, 8);
        mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
            let acc = fb.alloca(Ty::I64, 1);
            fb.store(Value::i64(1), acc);
            fb.for_loop(Value::i64(0), fb.arg(0), |fb, i| {
                let a = fb.load(acc, Ty::I64);
                let s = fb.add(a, i, Ty::I64);
                fb.store(s, acc);
                let slot = fb.srem(i, Value::i64(8), Ty::I64);
                fb.store_elem(s, fb.global(out), slot, Ty::I64);
            });
            let r = fb.load(acc, Ty::I64);
            fb.ret(Some(r));
        });
        Workload::new("tiny", mb.finish(), vec![n], vec![("out", 64)])
    }

    /// `main(r, n)` calls `delay(n)`, an empty `n`-iteration loop, `r`
    /// times between writes of `out`. A flip that ends one `delay` loop
    /// early leaves nothing behind once the next call has run over its
    /// frame: from there the run is the golden run, ahead of it by the
    /// iterations it skipped.
    pub(crate) fn delay_workload(r: u64, n: u64) -> Workload {
        use tinyir::builder::ModuleBuilder;
        use tinyir::{Ty, Value};
        let mut mb = ModuleBuilder::new("delay", "delay.c");
        let out = mb.global_zeroed("out", Ty::I64, 8);
        let delay = mb.define("delay", vec![Ty::I64], None, |fb| {
            fb.for_loop(Value::i64(0), fb.arg(0), |_, _| {});
            fb.ret(None);
        });
        mb.define("main", vec![Ty::I64, Ty::I64], Some(Ty::I64), |fb| {
            fb.for_loop(Value::i64(0), fb.arg(0), |fb, k| {
                fb.call(delay, vec![fb.arg(1)]);
                let slot = fb.srem(k, Value::i64(8), Ty::I64);
                fb.store_elem(k, fb.global(out), slot, Ty::I64);
            });
            fb.ret(Some(Value::i64(0)));
        });
        Workload::new("delay", mb.finish(), vec![r, n], vec![("out", 64)])
    }

    pub(crate) fn tiny_campaign() -> Campaign {
        // A deliberately short program: with ~tens of eligible dynamic
        // instructions and many injections, the pigeonhole principle
        // guarantees duplicate `(I, n)` samples.
        let w = tiny_workload(6);
        let app = care::compile(&w.module, OptLevel::O1);
        Campaign::prepare(&w, app, vec![])
    }

    /// HPCCG at the golden tests' size: long enough for a checkpoint trail.
    pub(crate) fn hpccg_campaign() -> Campaign {
        let w = workloads::hpccg::build(3, 2);
        let app = care::compile(&w.module, OptLevel::O1);
        let campaign = Campaign::prepare(&w, app, vec![]);
        assert!(
            campaign.trail.brackets() > 8,
            "test premise: hpccg(3,2) must leave a checkpoint trail"
        );
        campaign
    }

    pub(crate) fn cfg(injections: usize) -> CampaignConfig {
        CampaignConfig {
            injections,
            evaluate_care: true,
            app_only: true,
            keep_records: true,
            ..CampaignConfig::default()
        }
    }

    /// `campaign.run(cfg)` heard by a recorder: the report, and a reader of
    /// the counters that say what the run executed to get it.
    pub(crate) fn run_heard(
        campaign: &Campaign,
        cfg: &CampaignConfig,
    ) -> (CampaignReport, impl Fn(&str) -> u64) {
        let rec = telemetry::Recorder::new();
        let report = campaign.run_with_hooks(cfg, &rec);
        let tel = rec.drain();
        (report, move |name: &str| tel.counters.get(name).copied().unwrap_or(0))
    }

    /// The per-index reference: every injection re-simulates its own prefix.
    pub(crate) fn reference(campaign: &Campaign, cfg: &CampaignConfig) -> Vec<InjectionRecord> {
        (0..cfg.injections).filter_map(|i| campaign.run_one(cfg, i)).collect()
    }
}

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
        assert!(r.total() * 10 >= n * 9, "most injections classified: {} of {n}", r.total());
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
            assert!(r.latency_fraction_within(400) > 0.5, "latencies: {:?}", r.latency_buckets);
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
