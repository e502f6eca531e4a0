//! CLI: `carefuzz --seeds N [--start S]` to fuzz, `carefuzz --replay FILE`
//! to re-run one `.tir` reproducer through the full oracle.

use std::process::ExitCode;

/// Runs of at least this many seeds must reach the golden states (the CI
/// smoke runs 400).
const REACH_MIN_SEEDS: u64 = 200;

fn main() -> ExitCode {
    let mut seeds = 1000u64;
    let mut start = 0u64;
    let mut replay: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => seeds = parse_num(args.next(), "--seeds"),
            "--start" => start = parse_num(args.next(), "--start"),
            "--replay" => replay = Some(args.next().unwrap_or_else(|| usage("--replay FILE"))),
            "--help" | "-h" => {
                println!(
                    "carefuzz: differential-oracle fuzzing for the CARE stack\n\n\
                     USAGE:\n  carefuzz [--seeds N] [--start S]   fuzz N seeded programs\n  \
                     carefuzz --replay FILE.tir         re-check one reproducer"
                );
                return ExitCode::SUCCESS;
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }

    if let Some(path) = replay {
        return replay_file(&path);
    }

    println!("fuzzing {seeds} seeds starting at {start} ...");
    let (failures, reach) = carefuzz::run_seeds(start, seeds, |line| println!("{line}"));
    println!(
        "trellis pair: {} of {} campaigns reached a golden state ({} hops cloned one); \
         {} suffixes and {} repaired runs re-joined the golden run and stopped there, \
         {} of them at a shifted step",
        reach.reached_a_state,
        reach.campaigns,
        reach.hops,
        reach.suffixes_rejoined,
        reach.repaired_rejoined,
        reach.shifted,
    );
    for f in &failures {
        println!("\n=== seed {} ===", f.seed);
        println!("divergence: {}", f.divergence);
        println!("minimized reproducer (save under tests/regressions/):");
        println!("{}", f.reproducer);
    }
    if !failures.is_empty() {
        eprintln!("{} divergence(s) in {seeds} seeds", failures.len());
        return ExitCode::FAILURE;
    }
    // One seed in 16 is a program long enough to hold golden states. A run
    // of this many seeds that got to none of them held the trellis pair to
    // less than the trellis does differently from `run_one`.
    let reached = [reach.hops, reach.suffixes_rejoined, reach.repaired_rejoined, reach.shifted];
    if seeds >= REACH_MIN_SEEDS && reached.contains(&0) {
        eprintln!(
            "{seeds} seeds without a hop, a re-joined suffix, a re-joined repaired run \
             or a shifted re-join"
        );
        return ExitCode::FAILURE;
    }
    println!("ok: {seeds} seeds, no divergence");
    ExitCode::SUCCESS
}

fn replay_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let m = match tinyir::parser::parse_module(&text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match carefuzz::oracle::check_module(&m, 0xF1E1D, &mut Default::default()) {
        Some(d) => {
            eprintln!("{path}: still diverges: {d}");
            ExitCode::FAILURE
        }
        None => {
            println!("{path}: all engine pairs agree");
            ExitCode::SUCCESS
        }
    }
}

fn parse_num(v: Option<String>, flag: &str) -> u64 {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage(&format!("{flag} needs a number")))
}

fn usage(msg: &str) -> ! {
    eprintln!("carefuzz: {msg} (try --help)");
    std::process::exit(2)
}
