//! The [`InjectionRecord`] JSON field codec — one encoding shared by the
//! store's record log and careserve's wire protocol (the proto's `record`
//! frames delegate here), so the two can never drift apart.
//!
//! The JSON dialect is the telemetry crate's: hand-rolled escaping via
//! [`telemetry::push_json_str`] / [`telemetry::push_json_f64`], parsing
//! via [`telemetry::parse_json`]. [`telemetry::Json`] holds numbers as
//! `f64`, so `u64` values ride as plain numbers while exactly
//! representable and as decimal strings beyond 2⁵³ ([`push_u64`] /
//! [`json_u64`]); floats use the shortest-round-trip renderer, which
//! parses back to identical bits. The round-trip is exact: decoding an
//! encoded record reproduces it bit for bit.

use faultsim::{
    CareResult, InjectedInto, InjectionPoint, InjectionRecord, Outcome, Signal, StepSplit,
};
use safeguard::DeclineKind;
use simx::ModuleId;
use telemetry::{push_json_f64, push_json_str, Json};
use tinyir::FuncId;

/// Largest u64 exactly representable as an f64-backed JSON number.
const MAX_SAFE_JSON_INT: u64 = 1 << 53;

/// Append `v` as a JSON value that survives the f64-backed parser: a
/// number while exact, a decimal string beyond 2⁵³.
pub fn push_u64(out: &mut String, v: u64) {
    if v <= MAX_SAFE_JSON_INT {
        out.push_str(&v.to_string());
    } else {
        out.push('"');
        out.push_str(&v.to_string());
        out.push('"');
    }
}

/// Decode a `u64` value written by [`push_u64`]: a non-negative integral
/// number no larger than 2⁵³ (beyond that an f64 no longer names one
/// integer, so the cast would invent bits), or a decimal string.
pub fn json_u64(v: &Json) -> Option<u64> {
    match v {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_SAFE_JSON_INT as f64 => {
            Some(*n as u64)
        }
        Json::Str(s) => s.parse().ok(),
        _ => None,
    }
}

/// Decode a `u64` field written by [`push_u64`] (number or string form).
pub fn get_u64(v: &Json, key: &str) -> Option<u64> {
    json_u64(v.get(key)?)
}

/// `,"key":"val"` appended to an open object.
pub fn push_field_str(out: &mut String, key: &str, val: &str) {
    out.push(',');
    push_json_str(out, key);
    out.push(':');
    push_json_str(out, val);
}

/// `,"key":<u64>` appended to an open object (via [`push_u64`]).
pub fn push_field_u64(out: &mut String, key: &str, val: u64) {
    out.push(',');
    push_json_str(out, key);
    out.push(':');
    push_u64(out, val);
}

/// `,"key":<f64>` appended to an open object (shortest round-trip form).
pub fn push_field_f64(out: &mut String, key: &str, val: f64) {
    out.push(',');
    push_json_str(out, key);
    out.push(':');
    push_json_f64(out, val);
}

/// `,"key":true|false` appended to an open object.
pub fn push_field_bool(out: &mut String, key: &str, val: bool) {
    out.push(',');
    push_json_str(out, key);
    out.push(':');
    out.push_str(if val { "true" } else { "false" });
}

/// Parse an [`Outcome`] wire name (inverse of [`Outcome::name`]).
pub fn parse_outcome(s: &str) -> Option<Outcome> {
    Some(match s {
        "benign" => Outcome::Benign,
        "sdc" => Outcome::Sdc,
        "hang" => Outcome::Hang,
        "segv" => Outcome::SoftFailure(Signal::Segv),
        "bus" => Outcome::SoftFailure(Signal::Bus),
        "abort" => Outcome::SoftFailure(Signal::Abort),
        "signal_other" => Outcome::SoftFailure(Signal::Other),
        _ => return None,
    })
}

/// Parse a [`DeclineKind`] short name.
pub fn parse_decline(s: &str) -> Option<DeclineKind> {
    DeclineKind::ALL.into_iter().find(|d| d.short_name() == s)
}

/// Append one record's fields to an already-open JSON object (the caller
/// owns the `{"kind":...}` framing and the closing brace).
pub fn push_record_fields(out: &mut String, r: &InjectionRecord) {
    push_field_u64(out, "module", r.point.module.0 as u64);
    push_field_u64(out, "func", r.point.func.0 as u64);
    push_field_u64(out, "inst", r.point.inst as u64);
    push_field_u64(out, "nth", r.point.nth);
    let (tk, tv) = match r.target {
        InjectedInto::Reg(id) => ("reg", id as u64),
        InjectedInto::Mem(addr) => ("mem", addr),
        InjectedInto::Pc => ("pc", 0),
        InjectedInto::Skipped => ("skipped", 0),
    };
    push_field_str(out, "target", tk);
    push_field_u64(out, "target_val", tv);
    push_field_str(out, "outcome", r.outcome.name());
    if let Some(lat) = r.latency {
        push_field_u64(out, "latency", lat);
    }
    push_field_u64(out, "sim_steps", r.sim_steps);
    push_field_u64(out, "prefix", r.split.prefix);
    push_field_u64(out, "suffix", r.split.suffix);
    push_field_u64(out, "care_steps", r.split.care);
    if let Some(c) = &r.care {
        push_field_bool(out, "covered", c.covered);
        push_field_u64(out, "recoveries", c.recoveries);
        push_field_f64(out, "recovery_ms", c.recovery_ms);
        if let Some(d) = c.decline {
            push_field_str(out, "decline", d.short_name());
        }
    }
}

/// Decode the record fields written by [`push_record_fields`] out of a
/// parsed object (which may carry extra fields — `kind`, `index`,
/// `job_id` — that are simply ignored here).
pub fn record_from_json(v: &Json) -> Result<InjectionRecord, String> {
    let want = |key: &str| format!("record missing {key:?}");
    let get_str = |key: &str| v.get(key).and_then(Json::as_str);
    let get_usize = |key: &str| get_u64(v, key).map(|n| n as usize);
    let point = InjectionPoint {
        module: ModuleId(get_u64(v, "module").ok_or_else(|| want("module"))? as u32),
        func: FuncId(get_u64(v, "func").ok_or_else(|| want("func"))? as u32),
        inst: get_usize("inst").ok_or_else(|| want("inst"))?,
        nth: get_u64(v, "nth").ok_or_else(|| want("nth"))?,
    };
    let tv = get_u64(v, "target_val").unwrap_or(0);
    let target = match get_str("target").ok_or_else(|| want("target"))? {
        "reg" => InjectedInto::Reg(tv as u8),
        "mem" => InjectedInto::Mem(tv),
        "pc" => InjectedInto::Pc,
        "skipped" => InjectedInto::Skipped,
        other => return Err(format!("unknown injection target {other:?}")),
    };
    let outcome = parse_outcome(get_str("outcome").ok_or_else(|| want("outcome"))?)
        .ok_or_else(|| "unknown outcome".to_string())?;
    let care = match v.get("covered") {
        Some(Json::Bool(covered)) => Some(CareResult {
            covered: *covered,
            recoveries: get_u64(v, "recoveries").ok_or_else(|| want("recoveries"))?,
            recovery_ms: v
                .get("recovery_ms")
                .and_then(Json::as_f64)
                .ok_or_else(|| want("recovery_ms"))?,
            decline: match get_str("decline") {
                Some(d) => Some(parse_decline(d).ok_or_else(|| format!("unknown decline {d:?}"))?),
                None => None,
            },
        }),
        None => None,
        Some(_) => return Err("\"covered\" must be a bool".to_string()),
    };
    Ok(InjectionRecord {
        point,
        target,
        outcome,
        latency: get_u64(v, "latency"),
        sim_steps: get_u64(v, "sim_steps").ok_or_else(|| want("sim_steps"))?,
        split: StepSplit {
            prefix: get_u64(v, "prefix").ok_or_else(|| want("prefix"))?,
            suffix: get_u64(v, "suffix").ok_or_else(|| want("suffix"))?,
            care: get_u64(v, "care_steps").ok_or_else(|| want("care_steps"))?,
        },
        care,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::parse_json;

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
            let mut s = String::from("{\"kind\":\"record\",\"index\":7");
            push_record_fields(&mut s, r);
            s.push('}');
            let v = parse_json(&s).unwrap();
            assert_eq!(&record_from_json(&v).unwrap(), r);
        }
    }

    #[test]
    fn json_u64_rejects_what_a_cast_would_mangle() {
        for bad in ["1e300", "-1", "1.5", "9007199254740994", "true", "null", "\"x\""] {
            assert_eq!(json_u64(&parse_json(bad).unwrap()), None, "{bad}");
        }
        assert_eq!(json_u64(&parse_json("9007199254740992").unwrap()), Some(1 << 53));
        assert_eq!(json_u64(&parse_json("\"18446744073709551615\"").unwrap()), Some(u64::MAX));
    }

    #[test]
    fn u64_fields_round_trip_above_53_bits() {
        for v in [0u64, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let mut s = String::from("{\"kind\":\"t\"");
            push_field_u64(&mut s, "x", v);
            s.push('}');
            let j = parse_json(&s).unwrap();
            assert_eq!(get_u64(&j, "x"), Some(v), "round-trip of {v}");
        }
    }
}
