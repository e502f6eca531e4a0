//! The JSONL schema validator.
//!
//! The schema checks (CI, tests, `examples/telemetry_tour.rs`) run without
//! serde: every line goes through the workspace's own reader,
//! [`JsonRef::parse`].

use crate::json::JsonRef;
use std::collections::BTreeMap;

/// Validate a telemetry JSONL stream:
///
/// * every non-empty line parses as a JSON object with a string `kind`;
/// * the first line is `kind == "meta"` and carries `schema_version` equal
///   to [`crate::SCHEMA_VERSION`];
/// * `counter` lines carry `name` + numeric `value`, `hist` lines carry
///   `name`/`count`/`sum`/`buckets`, `shard` lines carry a `counters`
///   object.
///
/// Returns the number of lines seen per `kind`.
pub fn validate_jsonl(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = |e: String| format!("line {}: {e}", lineno + 1);
        let v = JsonRef::parse(line).map_err(at)?;
        let kind = v.req("kind", JsonRef::as_str).map_err(at)?;
        if counts.is_empty() {
            if kind != "meta" {
                return Err(at(format!("expected kind \"meta\", got {kind:?}")));
            }
            let ver = v.req("schema_version", JsonRef::as_f64).map_err(at)?;
            if ver != f64::from(crate::SCHEMA_VERSION) {
                let supported = crate::SCHEMA_VERSION;
                return Err(at(format!("schema_version {ver} != supported {supported}")));
            }
        }
        let present = |field| v.req(field, |_| Some(()));
        match kind {
            "counter" => present("name").and(v.req("value", JsonRef::as_f64).map(drop)),
            "hist" => ["name", "count", "sum", "buckets"].into_iter().try_for_each(present),
            "shard" => v.req("counters", |c| matches!(c, JsonRef::Obj(_)).then_some(())),
            _ => Ok(()),
        }
        .map_err(|e| at(format!("{kind} line: {e}")))?;
        *counts.entry(kind.to_string()).or_default() += 1;
    }
    if counts.is_empty() {
        return Err("empty stream: no meta line".to_string());
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_requires_meta_first() {
        let err =
            validate_jsonl("{\"kind\":\"counter\",\"name\":\"x\",\"value\":1}\n").unwrap_err();
        assert!(err.contains("meta"), "{err}");
        assert!(validate_jsonl("").is_err());
    }

    #[test]
    fn validator_pins_schema_version() {
        let err = validate_jsonl("{\"kind\":\"meta\",\"schema_version\":999}\n").unwrap_err();
        assert!(err.contains("999"), "{err}");
    }

    #[test]
    fn validator_checks_per_kind_fields() {
        let meta = format!("{{\"kind\":\"meta\",\"schema_version\":{}}}\n", crate::SCHEMA_VERSION);
        let bad = format!("{meta}{{\"kind\":\"counter\",\"name\":\"x\"}}\n");
        assert!(validate_jsonl(&bad).is_err());
        let good = format!(
            "{meta}{{\"kind\":\"counter\",\"name\":\"x\",\"value\":3}}\n{{\"kind\":\"span\",\"foo\":1}}\n"
        );
        let counts = validate_jsonl(&good).unwrap();
        assert_eq!(counts["meta"], 1);
        assert_eq!(counts["counter"], 1);
        assert_eq!(counts["span"], 1);
    }
}
