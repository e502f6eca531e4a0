//! carefuzz — differential-oracle fuzzing for the whole CARE stack.
//!
//! The harness generates seeded random TinyIR programs ([`spec`]), runs each
//! one through every pair of engines that must agree ([`oracle`]) and, when a
//! pair disagrees, minimises the program with a spec-level delta debugger
//! ([`shrink`]). Minimised reproducers are checked into `tests/regressions/`
//! and replayed by `tests/regressions.rs` so a fixed divergence stays fixed.
//!
//! Run it: `cargo run --release -p carefuzz -- --seeds 10000`.
//! Reproduce a divergence by name: `cargo run --release -p carefuzz -- --replay
//! tests/regressions/<name>.tir`.

pub mod oracle;
pub mod shrink;
pub mod spec;

use oracle::{Divergence, Reach};
use spec::ProgramSpec;

/// One divergent seed, minimised.
pub struct Failure {
    /// The seed that produced the divergence.
    pub seed: u64,
    /// The original divergence.
    pub divergence: Divergence,
    /// The minimised spec still reproducing it.
    pub minimized: ProgramSpec,
    /// Printed TinyIR of the minimised program, ready to be checked into
    /// `tests/regressions/`.
    pub reproducer: String,
}

/// Fuzz seeds `start..start + count`. Returns every divergence found, each
/// already minimised, and what the trellis pair's campaigns reached of the
/// golden states along the way. `progress` gets a line every 500 seeds.
pub fn run_seeds(
    start: u64,
    count: u64,
    mut progress: impl FnMut(String),
) -> (Vec<Failure>, Reach) {
    let mut failures = Vec::new();
    let mut reach = Reach::default();
    for seed in start..start + count {
        if seed != start && (seed - start).is_multiple_of(500) {
            progress(format!(
                "  ... {} / {count} seeds, {} divergence(s)",
                seed - start,
                failures.len()
            ));
        }
        let spec = ProgramSpec::generate(seed);
        let Some(d) = oracle::check_spec(&spec, &mut reach) else { continue };
        progress(format!("seed {seed}: {d}"));
        let minimized = shrink::shrink(&spec, d.pair);
        let reproducer = tinyir::display::print_module(&spec::build(&minimized));
        failures.push(Failure { seed, divergence: d, minimized, reproducer });
    }
    (failures, reach)
}
