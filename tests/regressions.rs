//! Replay the minimized-reproducer corpus.
//!
//! Every `.tir` under `tests/regressions/` is a program the fuzzer once
//! minimised from a real engine divergence (see the comment at the top of
//! `crates/carefuzz/examples/gen_regressions.rs` for what each one caught).
//! Each must now pass the *entire* differential oracle — if one diverges
//! again, a fixed bug has been reintroduced.
//!
//! Reproduce a failure by name:
//! `cargo run --release -p carefuzz -- --replay tests/regressions/<name>.tir`

use std::path::Path;

#[test]
fn regression_corpus_replays_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions");
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/regressions directory")
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.extension().and_then(|e| e.to_str()) != Some("tir") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let m = tinyir::parser::parse_module(&text)
            .unwrap_or_else(|e| panic!("{}: parse error: {e}", path.display()));
        tinyir::verify::verify_module(&m)
            .unwrap_or_else(|e| panic!("{}: verify error: {e}", path.display()));
        if let Some(d) = carefuzz::oracle::check_module(&m, 0xC0FFEE, &mut Default::default()) {
            panic!("{}: fixed divergence is back: {d}", path.display());
        }
        checked += 1;
    }
    assert!(checked >= 3, "expected at least 3 reproducers, found {checked}");
}
