//! The three ways `analysis::Liveness` answers a per-instruction question
//! give one answer.
//!
//! Codegen reads the live sets of a backward block walk
//! (`Liveness::walk_block`), Armor the set before one access
//! (`Liveness::live_before_into`), and everything else single-value scans
//! (`live_at`, `live_after_instr`). The scans are held to liveness's
//! definition by `tests/properties.rs`; this test holds the walk and the
//! per-access set to the scans, at every (value, instruction) pair of the
//! five Table 1 programs at O0 and O1 and of carefuzz-generated programs
//! after O1.

use analysis::{Cfg, LiveSet, Liveness};
use opt::OptLevel;
use proptest::prelude::*;
use tinyir::{InstrId, Module};

fn check_walks(m: &Module) -> Result<usize, String> {
    let mut pairs = 0;
    let mut sets: [LiveSet; 2] = Default::default();
    let mut row = LiveSet::default();
    for f in m.funcs.iter().filter(|f| !f.is_decl) {
        let lv = Liveness::compute(f, &Cfg::new(f));
        let keys: Vec<InstrId> =
            (0..(f.instrs.len() + f.params.len()) as u32).map(InstrId).collect();
        let mut err = None;
        for (bid, block) in f.block_iter() {
            let mut walked = Vec::new();
            lv.walk_block(bid, &mut sets, |at, before, after| {
                walked.push(at);
                lv.live_before_into(at, &mut row);
                for &k in &keys {
                    let want = (lv.live_at(k, at), lv.live_after_instr(k, at));
                    let got = (before.contains(k), after.contains(k), row.contains(k));
                    if (got.0, got.1) != want || got.2 != want.0 {
                        err.get_or_insert(format!(
                            "@{}: {k} at {at}: scans say {want:?}, walk and row {got:?}",
                            f.name
                        ));
                    }
                    pairs += 1;
                }
            });
            walked.reverse();
            if walked != block.instrs {
                return Err(format!("@{}: the walk of {bid} visited {walked:?}", f.name));
            }
        }
        if let Some(e) = err {
            return Err(e);
        }
    }
    Ok(pairs)
}

#[test]
fn walks_and_rows_agree_with_scans_on_the_workloads() {
    for w in workloads::all() {
        for level in [OptLevel::O0, OptLevel::O1] {
            let mut m = w.module.clone();
            opt::optimize(&mut m, level);
            let pairs = check_walks(&m).unwrap_or_else(|e| panic!("{} {level}: {e}", w.name));
            assert!(pairs > 0, "{} {level}: nothing compared", w.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: if cfg!(debug_assertions) { 16 } else { 64 }, ..ProptestConfig::default() })]

    #[test]
    fn walks_and_rows_agree_with_scans_on_generated_programs(seed in 0u64..2048) {
        let spec = carefuzz::spec::ProgramSpec::generate(seed);
        let mut m = carefuzz::spec::build(&spec);
        opt::optimize(&mut m, OptLevel::O1);
        if let Err(e) = check_walks(&m) {
            prop_assert!(false, "seed {}: {}", seed, e);
        }
    }
}
