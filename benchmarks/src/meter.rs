//! The correctness gate and failure accounting.
//!
//! An op is one job or one set-up repetition. It fails on an error, a
//! reject or a panic, when its report differs from the reference the
//! caller hands in, or when a repeat of byte-identical work differs from
//! the series' first instance. A failed op is counted and never timed
//! into a series.

use crate::adapter::CampaignReport;
use crate::stats::{Role, Series};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Failure messages kept for the run's printout (the count is exact).
const KEPT_MESSAGES: usize = 8;

/// Time `f`, turning a panic into an `Err` like any other failure.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> (Duration, Result<R, String>) {
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string());
        Err(format!("panicked: {msg}"))
    });
    (t0.elapsed(), out)
}

#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Ops {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < KEPT_MESSAGES {
            self.messages.push(msg);
        }
    }

    /// Count failures found outside any timed op (probe self-checks).
    pub fn absorb(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        failures.into_iter().for_each(|m| self.fail(m));
    }
}

/// The series of one pass plus the first report seen on each.
pub struct Meter {
    pub series: Vec<Series>,
    /// `false` for a series whose instances legitimately differ (cache-miss
    /// jobs: new builder params every time); those rely on `reference`.
    identical: Vec<bool>,
    first: Vec<Option<CampaignReport>>,
}

impl Meter {
    pub fn new(layout: &[(String, Role, bool)]) -> Meter {
        Meter {
            series: layout.iter().map(|(n, r, _)| Series::new(n.clone(), *r)).collect(),
            identical: layout.iter().map(|l| l.2).collect(),
            first: vec![None; layout.len()],
        }
    }

    /// Gate one finished op and, if it passed, time it into series `sid`.
    /// Returns whether it passed.
    pub fn record(
        &mut self,
        ops: &mut Ops,
        sid: usize,
        reference: Option<&CampaignReport>,
        dt: Duration,
        result: Result<CampaignReport, String>,
    ) -> bool {
        let passed = self.gate(ops, sid, reference, result);
        if passed {
            self.push(sid, dt);
        }
        passed
    }

    /// Count and check one finished op of series `sid` without timing it
    /// (the caller times a phase made of several gated ops with [`push`]).
    ///
    /// [`push`]: Meter::push
    pub fn gate(
        &mut self,
        ops: &mut Ops,
        sid: usize,
        reference: Option<&CampaignReport>,
        result: Result<CampaignReport, String>,
    ) -> bool {
        ops.attempted += 1;
        let name = &self.series[sid].name;
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                ops.fail(format!("{name}: {e}"));
                return false;
            }
        };
        if reference.is_some_and(|want| *want != report) {
            ops.fail(format!("{name}: report differs from its reference"));
            return false;
        }
        if self.identical[sid] {
            match &self.first[sid] {
                Some(first) if *first != report => {
                    ops.fail(format!("{name}: repeat differs from the first instance"));
                    return false;
                }
                Some(_) => {}
                None => self.first[sid] = Some(report),
            }
        }
        true
    }

    /// Add a sample whose ops passed [`gate`](Meter::gate).
    pub fn push(&mut self, sid: usize, dt: Duration) {
        self.series[sid].samples.push(dt.as_secs_f64());
    }

    pub fn samples_min(&self) -> usize {
        self.series.iter().map(|s| s.samples.len()).min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Vec<(String, Role, bool)> {
        vec![
            ("hit".to_string(), Role::Latency { group: 0 }, true),
            ("miss".to_string(), Role::Latency { group: 1 }, false),
        ]
    }

    fn report(benign: usize) -> CampaignReport {
        CampaignReport { benign, ..Default::default() }
    }

    #[test]
    fn failed_ops_are_counted_and_never_timed() {
        let (mut m, mut ops) = (Meter::new(&layout()), Ops::default());
        let dt = Duration::from_millis(1);
        assert!(m.record(&mut ops, 0, None, dt, Ok(report(1))));
        // An error, a reference mismatch and a differing repeat all fail.
        assert!(!m.record(&mut ops, 0, None, dt, Err("rejected".into())));
        assert!(!m.record(&mut ops, 0, Some(&report(2)), dt, Ok(report(1))));
        assert!(!m.record(&mut ops, 0, None, dt, Ok(report(3))));
        assert!(m.record(&mut ops, 0, Some(&report(1)), dt, Ok(report(1))));
        assert_eq!((ops.attempted, ops.failed), (5, 3));
        assert_eq!(m.series[0].samples.len(), 2);
        // A non-identical series accepts differing instances.
        assert!(m.record(&mut ops, 1, None, dt, Ok(report(1))));
        assert!(m.record(&mut ops, 1, None, dt, Ok(report(9))));
        assert_eq!(m.samples_min(), 2);
    }

    #[test]
    fn a_panic_is_a_failure_not_a_crash() {
        let (_, out) = guarded::<()>(|| panic!("boom"));
        assert_eq!(out, Err("panicked: boom".to_string()));
    }
}
