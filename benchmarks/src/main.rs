//! carebench — a layered benchmark of the CARE reproduction.
//!
//! ```text
//! carebench run --workload <W> --seed <S> [--seconds <N>] [--rounds <N>] [--trace [0|1]]
//! carebench list
//! carebench agree <setA> <setB>
//! ```
//!
//! `run` prints every metric by name with its unit, each series' sample
//! count and spread, `ops_attempted`/`ops_failed`, and ends with one JSON
//! result line. See README.md for the measurement rules and the reasons
//! behind every workload and metric.

mod adapter;
mod agree;
mod json;
mod layers;
mod meter;
mod scenarios;
mod spans;
mod spec;
mod stats;

use meter::{guarded, Meter, Ops};
use scenarios::{Plan, Scenario};
use spans::Tracer;
use stats::{floor3, median, quantile, Role, MIN_SAMPLES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Cold repetitions of set-up before the first round; `setup_s` is the
/// floor of these and the ones spread over the measured pass.
const SETUP_REPS_FIRST: usize = 4;
/// About this many more are spread evenly between the measured rounds.
const SETUP_REPS_SPREAD: usize = 32;
/// Extra rounds of the traced pass.
const TRACED_ROUNDS: usize = 5;
/// A run this many times over its `--seconds` stops measuring early (never
/// below the sample minimum): the driver's per-run limit outranks the
/// fixed round count on a host far slower than the reference.
const OVERRUN_FACTOR: f64 = 1.75;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    rounds: Option<usize>,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs { workload: String::new(), seed: 0, seconds: 20, rounds: None, trace: false };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => out.workload = value("a name")?.clone(),
            "--seed" => out.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--rounds" => {
                out.rounds = Some(value("a number")?.parse().map_err(|e| format!("--rounds: {e}"))?)
            }
            // Bare `--trace` or `--trace 0|1`.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if spec::workload(&out.workload).is_none() {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if out.seconds == 0 || out.rounds == Some(0) {
        return Err("--seconds and --rounds must be positive".to_string());
    }
    Ok(out)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User + system CPU milliseconds of this process (all threads). Fields 14
/// and 15 of `/proc/self/stat`, in the kernel's 100 Hz ticks.
fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 =
        after_comm.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<f64>().ok()).sum();
    ticks * 10.0
}

/// A directory of the benchmark's own for the files a run writes: under
/// the package when it is there (a checkout), else under the current one.
fn out_dir() -> PathBuf {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    if package.is_dir() {
        package.join("out")
    } else {
        PathBuf::from("benchmarks/out")
    }
}

fn series_lines(m: &Meter, label: &str) {
    for s in &m.series {
        let ms = |v: Option<f64>| v.map_or(f64::NAN, |s| s * 1e3);
        println!(
            "{label} {} samples={} floor_ms={:.4} harness.p50_ms={:.4} harness.p90_ms={:.4}",
            s.name,
            s.samples.len(),
            ms(floor3(&s.samples)),
            ms(median(&s.samples)),
            ms(quantile(&s.samples, 0.9)),
        );
    }
}

/// The five end-to-end metrics from a measured pass.
fn end_to_end(m: &Meter, scenario: &dyn Scenario, setup_s: f64, rss_mb: f64) -> Vec<json::Metric> {
    let (mut injections, mut bulk_s) = (0u64, 0.0);
    let mut groups: BTreeMap<u8, Vec<f64>> = BTreeMap::new();
    for s in &m.series {
        match s.role {
            Role::Bulk { injections: n } => {
                injections += n;
                bulk_s += s.floor();
            }
            Role::Latency { group } => groups.entry(group).or_default().push(s.floor()),
            Role::LayerOnly => {}
        }
    }
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let job_s = groups.values().map(mean).sum::<f64>() / groups.len().max(1) as f64;
    let (steps, classified) = scenarios::steps_and_injections(&scenario.bulk_reports());
    vec![
        ("inj_per_s", injections as f64 / bulk_s, "1/s"),
        ("job_ms", job_s * 1e3, "ms"),
        ("steps_per_inj", steps as f64 / classified.max(1) as f64, "steps"),
        ("peak_rss_mb", rss_mb, "MB"),
        ("setup_s", setup_s, "s"),
    ]
}

/// glibc gives every new thread a malloc arena of its own (up to 8 per
/// core) and which thread gets which is a race, so the high-water mark of
/// a run that spawns threads (the server: two per connection) wandered
/// 36–45 MB between identical runs; with one arena it is 22.8–23.0 MB. The
/// setting is read once at process start, hence the re-execution.
const ARENA_VAR: &str = "MALLOC_ARENA_MAX";

/// Run this same command again with one malloc arena, wait for it and
/// return its exit code.
fn rerun_with_one_arena() -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(ARENA_VAR, "1")
        .status()
        .map_err(|e| format!("re-execution failed: {e}"))?;
    Ok(ExitCode::from(status.code().unwrap_or(2) as u8))
}

fn run(args: &RunArgs) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with --release".to_string());
    }
    let w = spec::workload(&args.workload).expect("validated by parse_run");
    adapter::pin_pool_width(w.pool_width);
    let measured_rounds = args.rounds.unwrap_or_else(|| spec::rounds_for(w, args.seconds));
    let traced_rounds = if args.trace { TRACED_ROUNDS } else { 0 };
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    let plan = Plan { seed: args.seed, rounds: measured_rounds + traced_rounds, scratch };
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "carebench workload={} seed={} rounds={measured_rounds} seconds={} trace={} pool_width={} host_cpus={host_cpus}",
        w.name, args.seed, args.seconds, args.trace as u8, w.pool_width
    );
    std::fs::create_dir_all(&plan.scratch).map_err(|e| format!("{}: {e}", plan.scratch.display()))?;
    let result = run_in(args, w, &plan, measured_rounds, traced_rounds);
    let _ = std::fs::remove_dir_all(&plan.scratch);
    result
}

fn run_in(
    args: &RunArgs,
    w: &spec::WorkloadSpec,
    plan: &Plan,
    measured_rounds: usize,
    traced_rounds: usize,
) -> Result<(), String> {
    let mut ops = Ops::default();
    let off = Tracer::off();

    // Set-up, cold each time: nothing survives a repetition but the
    // process-wide translation cache, which set-up does not consult. A few
    // repetitions up front, the rest spread between the measured rounds,
    // so the series cover the whole run like every other. Each part of a
    // repetition is a series of its own; `setup_s` sums their floors.
    let mut setup_parts: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut set_up_once = |ops: &mut Ops| {
        let mut parts = scenarios::Parts::default();
        let (_, out) = guarded(|| scenarios::set_up(w.name, plan, &off, &mut parts));
        ops.attempted += 1;
        match out {
            Ok(s) => {
                for (name, dt) in parts.0 {
                    setup_parts.entry(name).or_default().push(dt.as_secs_f64());
                }
                Some(s)
            }
            Err(e) => {
                ops.fail(format!("set-up: {e}"));
                None
            }
        }
    };
    let mut live: Option<Box<dyn Scenario>> = None;
    for _ in 0..SETUP_REPS_FIRST {
        drop(live.take());
        live = set_up_once(&mut ops);
    }
    let mut scenario = live.ok_or_else(|| format!("set-up never succeeded: {:?}", ops.messages))?;
    for line in scenario.job_list() {
        println!("job {line}");
    }

    scenario.warm_up(&mut ops);

    let mut measured = Meter::new(&scenario.layout());
    let setup_every = (measured_rounds / SETUP_REPS_SPREAD).max(1);
    let (cpu0, t0) = (cpu_ms(), Instant::now());
    let mut rounds_done = 0;
    for r in 1..=measured_rounds {
        scenario.round(r, &off, &mut measured, &mut ops);
        if r % setup_every == 0 {
            drop(set_up_once(&mut ops));
        }
        rounds_done = r;
        let over = t0.elapsed().as_secs_f64() > OVERRUN_FACTOR * args.seconds as f64;
        if over && r >= MIN_SAMPLES && measured.samples_min() >= MIN_SAMPLES {
            println!("overrun: stopped after {r} of {measured_rounds} rounds");
            break;
        }
    }
    let measured_s = t0.elapsed().as_secs_f64();
    let cpu_used = cpu_ms() - cpu0;
    let rss_mb = peak_rss_mb();
    println!("measured rounds={rounds_done} wall_s={measured_s:.3}");
    let mut setup_s = 0.0;
    for (name, samples) in &setup_parts {
        let floor = floor3(samples).ok_or("fewer than three set-ups succeeded")?;
        setup_s += floor;
        println!(
            "setup {name} samples={} floor_ms={:.4} harness.p50_ms={:.4}",
            samples.len(),
            floor * 1e3,
            median(samples).unwrap_or(f64::NAN) * 1e3
        );
    }
    series_lines(&measured, "series");

    if measured.series.iter().any(|s| s.samples.len() < 3) {
        return Err(format!("a series has fewer than three samples: {:?}", ops.messages));
    }
    let e2e = end_to_end(&measured, scenario.as_ref(), setup_s, rss_mb);
    for (name, value, unit) in &e2e {
        println!("metric {name} {value} {unit}");
    }

    let mut result = e2e;
    if args.trace {
        let tracer = Tracer::on(0, Instant::now());
        let mut traced = Meter::new(&scenario.layout());
        for r in 1..=traced_rounds {
            scenario.round(rounds_done + r, &tracer, &mut traced, &mut ops);
        }
        series_lines(&traced, "traced");
        let spans = tracer.into_spans();
        let bulk_injections: u64 = measured
            .series
            .iter()
            .map(|s| match s.role {
                Role::Bulk { injections } => injections * s.samples.len() as u64,
                _ => 0,
            })
            .sum();
        let pass = layers::PassResults {
            scenario: scenario.as_ref(),
            measured: &measured,
            traced: &traced,
            spans: &spans,
            cpu_ms_per_inj: cpu_used / bulk_injections.max(1) as f64,
        };
        let values = layers::measure(&pass, &plan.scratch, &mut ops)?;
        for (name, ns) in spans::self_times(&spans) {
            println!("self_time {name} ms={:.3}", ns as f64 / 1e6);
        }
        let trace_file = out_dir().join(format!("trace-{}-{}.jsonl", w.name, args.seed));
        std::fs::write(&trace_file, spans::to_jsonl(&spans))
            .map_err(|e| format!("{}: {e}", trace_file.display()))?;
        println!("trace spans={} file={}", spans.len(), trace_file.display());
        result = Vec::with_capacity(spec::PER_LAYER.len());
        for m in &spec::PER_LAYER {
            let value = *values.get(m.name).ok_or_else(|| format!("no value for {}", m.name))?;
            println!("layer {} {value} {}", m.name, m.unit);
            result.push((m.name, value, m.unit));
        }
    }
    drop(scenario);

    for msg in &ops.messages {
        println!("failure {msg}");
    }
    println!("ops_attempted={} ops_failed={}", ops.attempted, ops.failed);
    let correct = ops.failed == 0 && json::all_finite(&result);
    println!("{}", json::result_line(correct, ops.attempted, ops.failed, &result));
    Ok(())
}

fn list() {
    for w in &spec::WORKLOADS {
        println!("workload\t{}\t{}", w.name, w.why);
    }
    for (m, bound) in &spec::END_TO_END {
        println!("end_to_end\t{}\t{}\t{}\t{bound}", m.name, m.unit, m.better);
    }
    for m in &spec::PER_LAYER {
        println!("per_layer\t{}\t{}\t{}", m.name, m.unit, m.better);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A run that printed its result line exits 0 whatever the line says:
    // `correct` and `failed` are in it. No result line, no zero.
    let outcome = match args.first().map(String::as_str) {
        Some("run") if std::env::var_os(ARENA_VAR).is_none() => match rerun_with_one_arena() {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a)).map(|()| true),
        Some("list") => {
            list();
            Ok(true)
        }
        Some("agree") if args.len() == 3 => agree::agree(Path::new(&args[1]), Path::new(&args[2])),
        _ => Err("usage: carebench run --workload <W> --seed <S> [--seconds <N>] [--rounds <N>] [--trace [0|1]] | list | agree <setA> <setB>".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("carebench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let a = parse_run(&args(&["--workload", "svc_mix", "--seed", "7", "--seconds", "20", "--trace", "0"]))
            .unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("svc_mix", 7, 20, false));
        let a = parse_run(&args(&["--workload", "cov_interp", "--trace", "1", "--seed", "3"])).unwrap();
        assert!(a.trace && a.seed == 3);
        // Bare --trace, as the issue writes it, followed by another flag.
        let a = parse_run(&args(&["--workload", "cov_interp", "--trace", "--rounds", "3"])).unwrap();
        assert!(a.trace && a.rounds == Some(3));
        assert!(parse_run(&args(&["--workload", "nope"])).is_err());
        assert!(parse_run(&args(&["--workload", "cov_interp", "--seconds", "0"])).is_err());
        assert!(parse_run(&args(&["--workload", "cov_interp", "--bogus"])).is_err());
    }
}
