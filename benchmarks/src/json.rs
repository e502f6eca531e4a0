//! The result line: one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`, printed last on standard output.

use std::fmt::Write as _;

/// A metric as printed: name, value as measured, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Rust's shortest round-trip rendering keeps every digit that was
/// measured. JSON has no NaN or infinity; the caller rules them out
/// ([`all_finite`]) before a result line is called correct.
fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

pub fn all_finite(metrics: &[Metric]) -> bool {
    metrics.iter().all(|m| m.1.is_finite())
}

pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{{\"value\":");
        push_num(&mut out, *value);
        let _ = write!(out, ",\"unit\":\"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{parse_json, Json};

    #[test]
    fn result_line_round_trips_through_a_json_parser() {
        let metrics: [Metric; 3] =
            [("inj_per_s", 1234.567890123, "1/s"), ("setup_s", 0.0371, "s"), ("count", 3.0, "count")];
        let line = result_line(true, 1000, 0, &metrics);
        assert!(!line.contains('\n'));
        let v = parse_json(&line).expect("valid JSON");
        let Json::Obj(top) = &v else { panic!("not an object") };
        let mut keys: Vec<&str> = top.keys().map(String::as_str).collect();
        keys.sort();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(v.get("failed").and_then(Json::as_f64), Some(0.0));
        for (name, value, unit) in metrics {
            let m = v.get("metrics").and_then(|m| m.get(name)).expect(name);
            // Every digit survives: the parsed value is the measured one.
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(value));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
    }

    #[test]
    fn non_finite_values_are_flagged_and_still_valid_json() {
        let metrics: [Metric; 1] = [("x", f64::NAN, "s")];
        assert!(!all_finite(&metrics));
        assert!(parse_json(&result_line(false, 1, 1, &metrics)).is_ok());
    }
}
