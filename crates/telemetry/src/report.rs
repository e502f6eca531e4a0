//! The drained view of a [`Recorder`](crate::Recorder) and its two sinks:
//! a versioned JSONL event stream and a human-readable summary table.

use crate::event::Event;
use crate::hist::Histogram;
use crate::json::{push_arr, push_int, Obj};
use crate::SCHEMA_VERSION;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Merged telemetry from every shard of a recorder.
///
/// `BTreeMap` keys keep both sinks deterministically ordered regardless of
/// the thread schedule that produced the shards.
#[derive(Default, Clone, Debug)]
pub struct TelemetryReport {
    /// Summed counters across all shards.
    pub counters: BTreeMap<String, u64>,
    /// Per-shard counter subtotals (one map per worker thread that recorded
    /// anything) — the per-worker utilization view.
    pub per_shard_counters: Vec<BTreeMap<String, u64>>,
    /// Merged histograms by name.
    pub hists: BTreeMap<String, Histogram>,
    /// All emitted events, sorted by their `t_ns` stamp.
    pub events: Vec<Event>,
    /// Wall-clock seconds from recorder creation to the drain.
    pub wall_s: f64,
}

impl TelemetryReport {
    /// Render the report as a JSONL string: one `meta` line, then one line
    /// per counter, shard, histogram and event. Every line carries `kind`;
    /// the `meta` line carries `schema_version` = [`SCHEMA_VERSION`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut line = |text: String| {
            out.push_str(&text);
            out.push('\n');
        };
        line(
            Event::new("meta")
                .field("schema_version", u64::from(SCHEMA_VERSION))
                .field("wall_s", self.wall_s)
                .field("counters", self.counters.len())
                .field("hists", self.hists.len())
                .field("events", self.events.len())
                .field("shards", self.per_shard_counters.len())
                .to_json(),
        );
        for (name, &value) in &self.counters {
            line(Obj::new("counter").str("name", name).int("value", value).end());
        }
        for (shard, counters) in self.per_shard_counters.iter().enumerate() {
            let members = |o: &mut Obj| {
                for (name, &value) in counters {
                    o.int(name, value);
                }
            };
            line(Obj::new("shard").int("shard", shard as u64).obj("counters", members).end());
        }
        for (name, h) in &self.hists {
            line(
                Obj::new("hist")
                    .str("name", name)
                    .int("count", h.count())
                    .int("sum", h.sum())
                    .int("min", h.min())
                    .int("max", h.max())
                    .int("p50", h.quantile(0.5))
                    .int("p99", h.quantile(0.99))
                    .arr("buckets", h.nonzero_buckets(), |s, (bit_len, n)| {
                        push_arr(s, [bit_len as u64, n], push_int)
                    })
                    .end(),
            );
        }
        for ev in &self.events {
            line(ev.to_json());
        }
        out
    }

    /// Render the human-readable summary: histograms first (the
    /// phase-latency table), then counters, then shard subtotals.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "telemetry summary (wall {:.3}s)", self.wall_s);
        if !self.hists.is_empty() {
            let name_w = self.hists.keys().map(|k| k.len()).max().unwrap_or(4).max("span".len());
            let _ = writeln!(
                out,
                "  {:<name_w$} {:>10} {:>14} {:>12} {:>12} {:>12} {:>12}",
                "span", "count", "mean", "p50", "p99", "min", "max",
            );
            for (name, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {:<name_w$} {:>10} {:>14.1} {:>12} {:>12} {:>12} {:>12}",
                    name,
                    h.count(),
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.min(),
                    h.max(),
                );
            }
        }
        if !self.counters.is_empty() {
            let name_w =
                self.counters.keys().map(|k| k.len()).max().unwrap_or(7).max("counter".len());
            let _ = writeln!(out, "  {:<name_w$} {:>14}", "counter", "value");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<name_w$} {value:>14}");
            }
        }
        if self.per_shard_counters.len() > 1 {
            let _ = writeln!(out, "  per-worker shards:");
            for (i, counters) in self.per_shard_counters.iter().enumerate() {
                let mut parts: Vec<String> = Vec::new();
                for (name, value) in counters {
                    parts.push(format!("{name}={value}"));
                }
                let _ = writeln!(out, "    shard {i}: {}", parts.join(" "));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Hooks, Recorder};
    use crate::schema::validate_jsonl;

    fn sample_report() -> TelemetryReport {
        let r = Recorder::new();
        r.add("tlb.loads", 100);
        r.add("tlb.read_misses", 3);
        r.record("recovery.kernel_ns", 12_000);
        r.record("recovery.kernel_ns", 15_000);
        r.emit(Event::new("job").field("workload", "HPCCG").field("step", 42u64));
        r.drain()
    }

    #[test]
    fn jsonl_has_meta_first_and_validates() {
        let rep = sample_report();
        let jsonl = rep.to_jsonl();
        let first = jsonl.lines().next().unwrap();
        assert!(first.contains("\"kind\":\"meta\""));
        assert!(first.contains(&format!("\"schema_version\":{SCHEMA_VERSION}")));
        let counts = validate_jsonl(&jsonl).unwrap();
        assert_eq!(counts.get("meta"), Some(&1));
        assert_eq!(counts.get("counter"), Some(&2));
        assert_eq!(counts.get("hist"), Some(&1));
        assert_eq!(counts.get("job"), Some(&1));
    }

    #[test]
    fn summary_table_mentions_every_name() {
        let rep = sample_report();
        let table = rep.summary_table();
        assert!(table.contains("recovery.kernel_ns"));
        assert!(table.contains("tlb.loads"));
        assert!(table.contains("tlb.read_misses"));
    }

    #[test]
    fn empty_report_renders() {
        let rep = TelemetryReport::default();
        let jsonl = rep.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        validate_jsonl(&jsonl).unwrap();
        assert!(rep.summary_table().contains("telemetry summary"));
    }
}
