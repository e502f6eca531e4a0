//! Work pins: the executed-step trajectory in `BENCH_steps.jsonl`.
//!
//! Timed metrics need parent/change pairs; the counts of executed work do
//! not — they are exact and the same on every host and either engine. Each
//! line of `BENCH_steps.jsonl` holds them for one change that moved them:
//! the `fig7` and `table2` campaigns of a [`Session`] at [`SETTING`], read
//! with one recorder. This test recomputes them and compares them with the
//! file's last line, so a change that moves executed work without adding a
//! line fails here, printing the line to append. Science stays pinned by
//! `tests/experiments.rs`; this pins work.

use bench::{Session, REGISTRY};
use faultsim::EngineKind;
use std::collections::BTreeMap;

/// What the counters are read at: `repro --injections 100 --seed 0xCA2E
/// --engine compiled fig7 table2` at a pool width of 2. The counts are the
/// same at every width.
const SETTING: &str = "fig7 table2, 100 injections, seed 0xCA2E, compiled engine, width 2";

/// The counters a line holds; `suffix.executed_steps.<class>` for every
/// class heard is added to these.
const COUNTERS: &[&str] = &[
    "steps.prefix",
    "steps.suffix",
    "steps.care",
    "suffix.pruned_steps",
    "care.pruned_steps",
    "suffix.compares",
    "care.compares",
    "suffix.converged",
    "care.converged",
    "suffix.shifted",
    "care.shifted",
    "suffix.shift_searches",
    "suffix.shift_search_steps",
    "cursor.window_steps",
    "cursor.hops",
];

fn recomputed() -> BTreeMap<String, u64> {
    let mut s = Session::new(100, 0xCA2E, EngineKind::Compiled);
    s.recorder = Some(telemetry::Recorder::new());
    rayon::with_threads(2, || {
        for name in ["fig7", "table2"] {
            let row = REGISTRY.iter().find(|e| e.name == name).expect("a registry row");
            (row.run)(&s);
        }
    });
    let counters = s.recorder.as_ref().expect("attached above").drain().counters;
    let kept = |name: &String| {
        COUNTERS.contains(&name.as_str()) || name.starts_with("suffix.executed_steps.")
    };
    counters.into_iter().filter(|(name, _)| kept(name)).collect()
}

#[test]
fn executed_work_matches_the_last_line_of_bench_steps() {
    let file = include_str!("../BENCH_steps.jsonl");
    let last = file.lines().last().expect("BENCH_steps.jsonl has a line");
    let last = telemetry::JsonRef::parse(last).expect("the last line parses");
    let pr = last.get("pr").and_then(|v| v.uint::<u64>()).expect("a pr number");
    let pinned: Option<BTreeMap<String, u64>> = match last.get("counters") {
        Some(telemetry::JsonRef::Obj(m)) => {
            m.iter().map(|(k, v)| Some((k.to_string(), v.uint()?))).collect()
        }
        _ => None,
    };
    let got = recomputed();
    let same = last.get("setting").and_then(|s| s.as_str()) == Some(SETTING)
        && pinned.as_ref() == Some(&got);
    let mut line = String::from("{");
    telemetry::json::Obj::append(&mut line, |o| {
        o.u64("pr", pr + 1).str("parent", "<the commit this change builds on>");
        o.str("setting", SETTING).obj("counters", |o| {
            for (name, &n) in &got {
                o.u64(name, n);
            }
        });
    });
    line.push('}');
    assert!(same, "executed work moved; if that is intended, append to BENCH_steps.jsonl:\n{line}");
}
