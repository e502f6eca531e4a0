//! The JSON field codecs of [`InjectionRecord`] and [`CampaignReport`] —
//! one encoder and one decoder each, side by side, in the crate that owns
//! the types.
//!
//! A record leaves the process two ways, as a careserve `record` frame and
//! as a carestore log line; both wrap the same members
//! ([`push_record_fields`]), so a streamed record and a logged one carry
//! byte-identical fields and cannot drift. The dialect — string escaping,
//! the `u64` spelling beyond 2⁵³, shortest-round-trip floats, range-checked
//! reads — is [`telemetry::json`]'s. The decoders read the borrowed tree
//! ([`JsonRef`]); [`record_from_json`] and [`report_from_json`] take the
//! owned one and convert it. Both round trips are exact: decoding an
//! encoded value reproduces it bit for bit.

use crate::{
    CampaignReport, CareResult, InjectedInto, InjectionPoint, InjectionRecord, Outcome, Signal,
    StepSplit,
};
use safeguard::DeclineKind;
use simx::ModuleId;
use std::collections::HashMap;
use telemetry::json::{push_f64, push_u64, Json, JsonRef, Obj};
use tinyir::FuncId;

/// Inverse of [`Outcome::name`].
fn parse_outcome(s: &str) -> Result<Outcome, String> {
    Ok(match s {
        "benign" => Outcome::Benign,
        "sdc" => Outcome::Sdc,
        "hang" => Outcome::Hang,
        "segv" => Outcome::SoftFailure(Signal::Segv),
        "bus" => Outcome::SoftFailure(Signal::Bus),
        "abort" => Outcome::SoftFailure(Signal::Abort),
        "signal_other" => Outcome::SoftFailure(Signal::Other),
        other => return Err(format!("unknown outcome {other:?}")),
    })
}

/// Inverse of [`DeclineKind::short_name`].
fn parse_decline(s: &str) -> Result<DeclineKind, String> {
    DeclineKind::ALL
        .into_iter()
        .find(|d| d.short_name() == s)
        .ok_or_else(|| format!("unknown decline kind {s:?}"))
}

/// Append one record's members to an open object (the caller owns the
/// `kind` and whatever addresses the record: `job_id`, `index`).
pub fn push_record_fields(o: &mut Obj, r: &InjectionRecord) {
    let (target, target_val) = match r.target {
        InjectedInto::Reg(id) => ("reg", id as u64),
        InjectedInto::Mem(addr) => ("mem", addr),
        InjectedInto::Pc => ("pc", 0),
        InjectedInto::Skipped => ("skipped", 0),
    };
    o.u64("module", r.point.module.0 as u64)
        .u64("func", r.point.func.0 as u64)
        .u64("inst", r.point.inst as u64)
        .u64("nth", r.point.nth)
        .str("target", target)
        .u64("target_val", target_val)
        .str("outcome", r.outcome.name());
    if let Some(latency) = r.latency {
        o.u64("latency", latency);
    }
    o.u64("sim_steps", r.sim_steps)
        .u64("prefix", r.split.prefix)
        .u64("suffix", r.split.suffix)
        .u64("care_steps", r.split.care);
    if let Some(c) = &r.care {
        o.bool("covered", c.covered)
            .u64("recoveries", c.recoveries)
            .f64("recovery_ms", c.recovery_ms);
        if let Some(d) = c.decline {
            o.str("decline", d.short_name());
        }
    }
}

/// Decode the members [`push_record_fields`] writes out of a parsed
/// object; any other member (`kind`, `index`, `job_id`) is ignored. A
/// value that does not fit its field is an error, never a truncation.
pub fn record_from_ref(v: &JsonRef) -> Result<InjectionRecord, String> {
    let target = match v.req("target", JsonRef::as_str)? {
        "reg" => InjectedInto::Reg(v.req("target_val", JsonRef::uint)?),
        "mem" => InjectedInto::Mem(v.req("target_val", JsonRef::uint)?),
        "pc" => InjectedInto::Pc,
        "skipped" => InjectedInto::Skipped,
        other => return Err(format!("unknown injection target {other:?}")),
    };
    let care = match v.opt("covered", JsonRef::as_bool)? {
        Some(covered) => Some(CareResult {
            covered,
            recoveries: v.req("recoveries", JsonRef::uint)?,
            recovery_ms: v.req("recovery_ms", JsonRef::as_f64)?,
            decline: v.opt("decline", JsonRef::as_str)?.map(parse_decline).transpose()?,
        }),
        None => None,
    };
    Ok(InjectionRecord {
        point: InjectionPoint {
            module: ModuleId(v.req("module", JsonRef::uint)?),
            func: FuncId(v.req("func", JsonRef::uint)?),
            inst: v.req("inst", JsonRef::uint)?,
            nth: v.req("nth", JsonRef::uint)?,
        },
        target,
        outcome: parse_outcome(v.req("outcome", JsonRef::as_str)?)?,
        latency: v.opt("latency", JsonRef::uint)?,
        sim_steps: v.req("sim_steps", JsonRef::uint)?,
        split: StepSplit {
            prefix: v.req("prefix", JsonRef::uint)?,
            suffix: v.req("suffix", JsonRef::uint)?,
            care: v.req("care_steps", JsonRef::uint)?,
        },
        care,
    })
}

/// Append a report's aggregates to an open object. `records` are not part
/// of it: they travel as their own frames and lines.
pub fn push_report_fields(o: &mut Obj, r: &CampaignReport) {
    let count = |s: &mut String, n: usize| push_u64(s, n as u64);
    o.u64("benign", r.benign as u64)
        .u64("soft_failure", r.soft_failure as u64)
        .u64("sdc", r.sdc as u64)
        .u64("hang", r.hang as u64)
        .arr("signals", r.signals, count)
        .arr("latency_buckets", r.latency_buckets, count)
        .u64("care_evaluated", r.care_evaluated as u64)
        .u64("care_covered", r.care_covered as u64)
        .u64("care_survived_with_sdc", r.care_survived_with_sdc as u64)
        .arr("recovery_times_ms", &r.recovery_times_ms, |s, t| push_f64(s, *t))
        .u64("total_recoveries", r.total_recoveries)
        // Deterministic bytes: `DeclineKind::ALL` order, not hash order.
        .obj("declines", |d| {
            for kind in DeclineKind::ALL {
                if let Some(&n) = r.declines.get(&kind) {
                    d.u64(kind.short_name(), n as u64);
                }
            }
        })
        .u64("simulated_steps", r.simulated_steps)
        .u64("steps_prefix", r.steps_prefix)
        .u64("steps_suffix", r.steps_suffix)
        .u64("steps_care", r.steps_care)
        .u64("trellis_snapshots", r.trellis_snapshots as u64)
        .u64("cursor_shards", r.cursor_shards as u64)
        .bool("cancelled", r.cancelled);
}

/// [`record_from_ref`] of the owned tree.
pub fn record_from_json(v: &Json) -> Result<InjectionRecord, String> {
    record_from_ref(&v.to_ref())
}

/// Decode the members [`push_report_fields`] writes into a report with
/// empty `records` (the caller re-attaches them).
pub fn report_from_ref(v: &JsonRef) -> Result<CampaignReport, String> {
    let four = |a: &JsonRef| a.list(JsonRef::uint)?.try_into().ok();
    // Through the owned tree's map: de-duplicated (the last member of a
    // name wins) and walked in key order, which fixes the first error.
    let by_name = v.req("declines", |d| match d.clone().into_owned() {
        Json::Obj(by_name) => Some(by_name),
        _ => None,
    })?;
    let mut declines = HashMap::new();
    for (name, n) in &by_name {
        let n = n.uint().ok_or_else(|| format!("bad count for decline {name:?}"))?;
        declines.insert(parse_decline(name)?, n);
    }
    Ok(CampaignReport {
        benign: v.req("benign", JsonRef::uint)?,
        soft_failure: v.req("soft_failure", JsonRef::uint)?,
        sdc: v.req("sdc", JsonRef::uint)?,
        hang: v.req("hang", JsonRef::uint)?,
        signals: v.req("signals", four)?,
        latency_buckets: v.req("latency_buckets", four)?,
        care_evaluated: v.req("care_evaluated", JsonRef::uint)?,
        care_covered: v.req("care_covered", JsonRef::uint)?,
        care_survived_with_sdc: v.req("care_survived_with_sdc", JsonRef::uint)?,
        recovery_times_ms: v.req("recovery_times_ms", |a| a.list(JsonRef::as_f64))?,
        total_recoveries: v.req("total_recoveries", JsonRef::uint)?,
        declines,
        simulated_steps: v.req("simulated_steps", JsonRef::uint)?,
        steps_prefix: v.req("steps_prefix", JsonRef::uint)?,
        steps_suffix: v.req("steps_suffix", JsonRef::uint)?,
        steps_care: v.req("steps_care", JsonRef::uint)?,
        trellis_snapshots: v.req("trellis_snapshots", JsonRef::uint)?,
        cursor_shards: v.req("cursor_shards", JsonRef::uint)?,
        cancelled: v.opt("cancelled", JsonRef::as_bool)?.unwrap_or(false),
        records: Vec::new(),
    })
}

/// [`report_from_ref`] of the owned tree.
pub fn report_from_json(v: &Json) -> Result<CampaignReport, String> {
    report_from_ref(&v.to_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_fields_round_trip_exactly() {
        let records = vec![
            InjectionRecord {
                point: InjectionPoint { module: ModuleId(1), func: FuncId(2), inst: 3, nth: 4 },
                target: InjectedInto::Mem(u64::MAX - 1),
                outcome: Outcome::SoftFailure(Signal::Segv),
                latency: Some(17),
                sim_steps: (1 << 53) + 99,
                split: StepSplit { prefix: 10, suffix: 20, care: 30 },
                care: Some(CareResult {
                    covered: false,
                    recoveries: 2,
                    recovery_ms: 0.1 + 0.2,
                    decline: Some(DeclineKind::Hang),
                }),
            },
            InjectionRecord {
                point: InjectionPoint { module: ModuleId(0), func: FuncId(0), inst: 0, nth: 0 },
                target: InjectedInto::Skipped,
                outcome: Outcome::Benign,
                latency: None,
                sim_steps: 0,
                split: StepSplit::default(),
                care: None,
            },
        ];
        for r in &records {
            let mut o = Obj::new("record");
            push_record_fields(o.u64("index", 7), r);
            let line = o.end();
            let back = record_from_ref(&JsonRef::parse(&line).unwrap()).unwrap();
            assert_eq!(&back, r);
            // And back to the same bytes.
            let mut o = Obj::new("record");
            push_record_fields(o.u64("index", 7), &back);
            assert_eq!(o.end(), line);
        }
    }
}
