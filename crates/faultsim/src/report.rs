//! The aggregate view of a campaign: the raw material of the paper's
//! Tables 2–4, 10, 11 and Figures 7, 9, 12, folded from the records.

use crate::suffix::{InjectionRecord, Outcome, Signal};
use safeguard::DeclineKind;

/// Aggregated campaign results — the raw material for Tables 2, 3, 4, 10,
/// 11 and Figures 7, 9, 12. `PartialEq` so the campaign server's wire
/// round-trip can be asserted bit-identical in one comparison.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignReport {
    /// Table 2 row.
    pub benign: usize,
    /// Table 2 row.
    pub soft_failure: usize,
    /// Table 2 row.
    pub sdc: usize,
    /// Table 2 row.
    pub hang: usize,
    /// Table 3 row: `[SIGSEGV, SIGBUS, SIGABRT, Other]`.
    pub signals: [usize; 4],
    /// Table 4 row: latency buckets `≤10, 11–50, 51–400, >400`.
    pub latency_buckets: [usize; 4],
    /// Figure 7: SIGSEGV injections evaluated under CARE.
    pub care_evaluated: usize,
    /// Figure 7: of those, recovered with clean output.
    pub care_covered: usize,
    /// Runs that completed after repair but with corrupted output: the
    /// injected fault hit a value used both as an address (repaired
    /// exactly) and as data (corrupted before CARE was ever involved).
    /// These count as *not covered*; they are not repair-introduced SDCs.
    pub care_survived_with_sdc: usize,
    /// Figure 9: modelled recovery times (ms) of covered runs.
    pub recovery_times_ms: Vec<f64>,
    /// Safeguard activations across covered runs.
    pub total_recoveries: u64,
    /// Decline-reason histogram of uncovered runs.
    pub declines: std::collections::HashMap<DeclineKind, usize>,
    /// Total dynamic instructions of the campaign (the denominator of
    /// simulated-instructions/sec throughput): the sum of `steps_prefix`,
    /// `steps_suffix` and `steps_care` — the prefix as executed, the other
    /// two as attributed (a CARE evaluation's steps include the suffix up to
    /// its trap, which ran once, for the unprotected classification). A
    /// report built by [`from_records`](Self::from_records) alone (a store
    /// merge) is attributed throughout: every step field is the sum of the
    /// per-record splits.
    pub simulated_steps: u64,
    /// Prefix-stage instructions actually executed by the cursor pass: each
    /// cursor's armed window, from the golden state cloned at its bracket's
    /// start to the bracket's last firing, summed over the populated
    /// brackets. Less than the step the last point fires at.
    pub steps_prefix: u64,
    /// Unprotected-suffix instructions.
    pub steps_suffix: u64,
    /// CARE-protected run instructions, each counted from its injection
    /// point ([`crate::StepSplit::care`]).
    pub steps_care: u64,
    /// Distinct points the cursor pass fired at, whose paused process the
    /// injections that drew the point forked; strictly less than the
    /// classified total whenever injection indexes sampled duplicate
    /// points. The name is kept because it is the wire field's.
    pub trellis_snapshots: usize,
    /// Cursors that ran in the cursor pass: one per populated bracket. The
    /// name is kept because it is the wire field's.
    pub cursor_shards: usize,
    /// True when the run's [`crate::JobControl`] was cancelled before completion:
    /// the aggregates and records cover only the injections classified
    /// before the cancel was observed.
    pub cancelled: bool,
    /// Raw records; populated only when [`crate::CampaignConfig::keep_records`]
    /// is set.
    pub records: Vec<InjectionRecord>,
}

impl CampaignReport {
    /// Build the aggregate view from raw records.
    pub fn from_records(records: Vec<InjectionRecord>) -> CampaignReport {
        let mut r = CampaignReport::default();
        for rec in &records {
            match rec.outcome {
                Outcome::Benign => r.benign += 1,
                Outcome::Sdc => r.sdc += 1,
                Outcome::Hang => r.hang += 1,
                Outcome::SoftFailure(sig) => {
                    r.soft_failure += 1;
                    let si = match sig {
                        Signal::Segv => 0,
                        Signal::Bus => 1,
                        Signal::Abort => 2,
                        Signal::Other => 3,
                    };
                    r.signals[si] += 1;
                    if let Some(lat) = rec.latency {
                        let bi = match lat {
                            0..=10 => 0,
                            11..=50 => 1,
                            51..=400 => 2,
                            _ => 3,
                        };
                        r.latency_buckets[bi] += 1;
                    }
                }
            }
            // Saturating, not wrapping: records merged out of a persisted
            // store log are not bounded by one run's fuel budget, so the
            // step sums can exceed u64 in aggregate (mirrors the
            // `Histogram::sum` saturation pinned in crates/telemetry).
            r.simulated_steps = r.simulated_steps.saturating_add(rec.sim_steps);
            r.steps_prefix = r.steps_prefix.saturating_add(rec.split.prefix);
            r.steps_suffix = r.steps_suffix.saturating_add(rec.split.suffix);
            r.steps_care = r.steps_care.saturating_add(rec.split.care);
            if let Some(c) = &rec.care {
                r.care_evaluated += 1;
                if c.covered {
                    r.care_covered += 1;
                    r.recovery_times_ms.push(c.recovery_ms);
                    r.total_recoveries = r.total_recoveries.saturating_add(c.recoveries);
                } else if let Some(d) = c.decline {
                    *r.declines.entry(d).or_default() += 1;
                } else if c.recoveries > 0 {
                    r.care_survived_with_sdc += 1;
                }
            }
        }
        r.records = records;
        r
    }

    /// Total classified injections.
    pub fn total(&self) -> usize {
        self.benign + self.soft_failure + self.sdc + self.hang
    }

    /// Figure 7's coverage metric.
    pub fn coverage(&self) -> f64 {
        if self.care_evaluated == 0 {
            0.0
        } else {
            self.care_covered as f64 / self.care_evaluated as f64
        }
    }

    /// Mean modelled recovery time of covered runs (Figure 9).
    pub fn mean_recovery_ms(&self) -> f64 {
        if self.recovery_times_ms.is_empty() {
            0.0
        } else {
            self.recovery_times_ms.iter().sum::<f64>() / self.recovery_times_ms.len() as f64
        }
    }

    /// Fraction of soft failures manifesting within `n` dynamic
    /// instructions (Table 4 analysis).
    pub fn latency_fraction_within(&self, n: u64) -> f64 {
        let total: usize = self.latency_buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let within: usize = match n {
            0..=10 => self.latency_buckets[0],
            11..=50 => self.latency_buckets[..2].iter().sum(),
            51..=400 => self.latency_buckets[..3].iter().sum(),
            _ => total,
        };
        within as f64 / total as f64
    }
}
