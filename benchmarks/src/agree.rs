//! `carebench agree <setA> <setB>`: do two sets of runs of one commit agree
//! within the benchmark's own bounds?
//!
//! A set is a directory of files, each the captured standard output of one
//! `carebench run` (any `--trace 0` run; traced runs carry no end-to-end
//! metrics and are skipped). For every workload × end-to-end metric the
//! table shows both medians, their gap as a share of set A's median and
//! the bound; any gap over its bound fails. `steps_per_inj` must also be
//! bit-identical across every run of a workload, and between `cov_interp`
//! and `cov_compiled`.

use crate::adapter::{parse_json, Json};
use crate::spec;
use crate::stats::{iqr_share, median};
use std::collections::BTreeMap;
use std::path::Path;

/// workload → metric → one value per run.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The workload named in a run's header line and its result metrics.
fn parse_run_output(text: &str) -> Option<(String, BTreeMap<String, f64>)> {
    let workload = text
        .lines()
        .find_map(|l| l.strip_prefix("carebench workload="))?
        .split_whitespace()
        .next()?
        .to_string();
    let last = text.lines().rev().find(|l| !l.trim().is_empty())?;
    let v = parse_json(last).ok()?;
    let Json::Obj(metrics) = v.get("metrics")? else { return None };
    let values = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Some((workload, values))
}

fn read_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if !path.is_file() {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (workload, values) =
            parse_run_output(&text).ok_or_else(|| format!("{}: not a run's output", path.display()))?;
        if !values.contains_key("setup_s") {
            continue;
        }
        let per_metric = set.entry(workload).or_default();
        for (name, value) in values {
            per_metric.entry(name).or_default().push(value);
        }
    }
    Ok(set)
}

/// The table and whether every gap is within its bound.
fn compare(a: &Set, b: &Set) -> (Vec<String>, bool) {
    let mut lines = vec![format!(
        "{:<13} {:<14} {:>4} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "runs", "median_a", "median_b", "gap", "bound", "iqr_a"
    )];
    let mut ok = true;
    let empty = Vec::new();
    for w in &spec::WORKLOADS {
        for (m, bound) in &spec::END_TO_END {
            let values = |set: &'_ Set| -> Vec<f64> {
                set.get(w.name).and_then(|per| per.get(m.name)).unwrap_or(&empty).clone()
            };
            let (va, vb) = (values(a), values(b));
            let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
                lines.push(format!("{:<13} {:<14} missing from a set", w.name, m.name));
                ok = false;
                continue;
            };
            let gap = (ma - mb).abs() / ma.abs();
            let within = gap <= *bound;
            ok &= within;
            lines.push(format!(
                "{:<13} {:<14} {:>4} {:>14.6} {:>14.6} {:>7.2}% {:>7.2}% {:>7.2}%  {}",
                w.name,
                m.name,
                va.len().min(vb.len()),
                ma,
                mb,
                gap * 100.0,
                bound * 100.0,
                iqr_share(&va).unwrap_or(0.0) * 100.0,
                if within { "ok" } else { "OVER" }
            ));
        }
    }
    // Exact counts: one value across every run of a workload, and the two
    // engines must have simulated the same steps.
    let mut exact: BTreeMap<&str, f64> = BTreeMap::new();
    for w in &spec::WORKLOADS {
        let all: Vec<f64> = [a, b]
            .iter()
            .filter_map(|s| s.get(w.name)?.get("steps_per_inj"))
            .flatten()
            .copied()
            .collect();
        let same = all.windows(2).all(|p| p[0].to_bits() == p[1].to_bits());
        ok &= same && !all.is_empty();
        lines.push(format!(
            "{:<13} steps_per_inj {} across {} runs",
            w.name,
            if same { "bit-identical" } else { "DIFFERS" },
            all.len()
        ));
        if let Some(v) = all.first() {
            exact.insert(w.name, *v);
        }
    }
    let engines_agree = exact.get("cov_interp").map(|v| v.to_bits())
        == exact.get("cov_compiled").map(|v| v.to_bits());
    ok &= engines_agree;
    lines.push(format!(
        "cov_interp and cov_compiled steps_per_inj {}",
        if engines_agree { "equal" } else { "DIFFER" }
    ));
    (lines, ok)
}

pub fn agree(a: &Path, b: &Path) -> Result<bool, String> {
    let (lines, ok) = compare(&read_set(a)?, &read_set(b)?);
    for line in lines {
        println!("{line}");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{result_line, Metric};

    fn output(workload: &str, inj: f64, steps: f64) -> String {
        let metrics: [Metric; 5] = [
            ("inj_per_s", inj, "1/s"),
            ("job_ms", 10.0, "ms"),
            ("steps_per_inj", steps, "steps"),
            ("peak_rss_mb", 50.0, "MB"),
            ("setup_s", 0.04, "s"),
        ];
        format!(
            "carebench workload={workload} seed=1 rounds=30\nseries x samples=30\n{}\n",
            result_line(true, 10, 0, &metrics)
        )
    }

    fn set_of(inj: &[f64], steps: f64) -> Set {
        let mut set = Set::new();
        for w in &spec::WORKLOADS {
            for &i in inj {
                let (name, values) = parse_run_output(&output(w.name, i, steps)).unwrap();
                for (metric, v) in values {
                    set.entry(name.clone()).or_default().entry(metric).or_default().push(v);
                }
            }
        }
        set
    }

    #[test]
    fn run_output_parses_to_workload_and_metrics() {
        let (w, m) = parse_run_output(&output("svc_mix", 812.25, 1234.5)).unwrap();
        assert_eq!(w, "svc_mix");
        assert_eq!(m["inj_per_s"], 812.25);
        assert_eq!(m.len(), 5);
        assert!(parse_run_output("no header\n{}").is_none());
    }

    #[test]
    fn gaps_within_bounds_agree_and_gaps_beyond_do_not() {
        let a = set_of(&[100.0, 101.0, 99.0], 1000.0);
        assert!(compare(&a, &set_of(&[104.0, 105.0, 103.0], 1000.0)).1);
        // 40 % apart: over the 25 % bound.
        let (lines, ok) = compare(&a, &set_of(&[140.0, 141.0, 139.0], 1000.0));
        assert!(!ok);
        assert!(lines.iter().any(|l| l.contains("inj_per_s") && l.ends_with("OVER")));
        // An exact count that moved at all fails even inside any bound.
        assert!(!compare(&a, &set_of(&[100.0, 101.0, 99.0], 1000.0000001)).1);
        // A missing workload fails.
        let mut partial = a.clone();
        partial.remove("svc_mix");
        assert!(!compare(&a, &partial).1);
    }
}
