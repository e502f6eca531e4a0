//! # opt — the TinyIR optimisation pipeline
//!
//! Models the compiler optimisation levels the paper evaluates:
//!
//! * [`OptLevel::O0`] — no transformations; every local variable stays in a
//!   stack slot (clang `-O0`).
//! * [`OptLevel::O1`] — `mem2reg` + constant folding + local CSE +
//!   store-to-load forwarding + phi simplification + DCE, iterated to a
//!   fixpoint (a faithful miniature of clang `-O1`'s scalar pipeline).
//!
//! The `-O1` pipeline is what produces the paper's two opposing coverage
//! effects: register-allocated induction variables become unrecoverable
//! (HPCCG −35 %), while eliminated redundant memory traffic extends recovery
//! kernel scope (miniMD +7 %, Figure 8).

mod inline;
mod mem2reg;
mod scalar;

use tinyir::Module;

/// Optimisation level, mirroring the paper's evaluated configurations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum OptLevel {
    /// No optimisation (paper's "No-opt").
    #[default]
    O0,
    /// Scalar optimisations (paper's "Opt"). `-O2`/`-O3` vectorisation is
    /// out of scope, as in the paper's prototype.
    O1,
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptLevel::O0 => f.write_str("O0"),
            OptLevel::O1 => f.write_str("O1"),
        }
    }
}

/// Statistics returned by [`optimize`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Call sites inlined.
    pub inlined_calls: usize,
    /// Allocas promoted to SSA.
    pub promoted_allocas: usize,
    /// Constant expressions folded.
    pub const_folds: usize,
    /// Instructions removed by CSE.
    pub cse_eliminated: usize,
    /// Loads forwarded from earlier stores/loads.
    pub loads_forwarded: usize,
    /// Degenerate phis simplified.
    pub phis_simplified: usize,
    /// Dead instructions removed.
    pub dead_removed: usize,
}

/// Run the pipeline for `level` over `module`, in place. The passes unlink
/// the instructions they delete from their blocks; O1 ends by compacting
/// every function ([`tinyir::Function::compact`]), so the module leaves
/// with exactly the instructions its blocks list.
pub fn optimize(module: &mut Module, level: OptLevel) -> OptStats {
    let mut stats = OptStats::default();
    if level == OptLevel::O0 {
        return stats;
    }
    stats.inlined_calls = inline::run(module, inline::INLINE_THRESHOLD);
    stats.promoted_allocas = mem2reg::run(module);
    // Iterate the scalar passes to a fixpoint (bounded for safety).
    for _ in 0..8 {
        let mut changed = 0;
        let n = scalar::simplify_phis(module);
        stats.phis_simplified += n;
        changed += n;
        let n = scalar::const_fold(module);
        stats.const_folds += n;
        changed += n;
        let n = scalar::local_cse(module);
        stats.cse_eliminated += n;
        changed += n;
        let n = scalar::store_load_forward(module);
        stats.loads_forwarded += n;
        changed += n;
        let n = scalar::dce(module);
        stats.dead_removed += n;
        changed += n;
        if changed == 0 {
            break;
        }
    }
    module.funcs.iter_mut().for_each(tinyir::Function::compact);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyir::builder::ModuleBuilder;
    use tinyir::interp::{layout_globals, Interp};
    use tinyir::mem::PagedMemory;
    use tinyir::verify::verify_module;
    use tinyir::{Ty, Value};

    /// Verify `m` after a single pass: compact it first, since a pass on
    /// its own may leave the instructions it deleted in the arena.
    /// Compacting panics if a listed instruction uses a deleted one.
    pub(crate) fn verify_compacted(m: &mut Module) {
        m.funcs.iter_mut().for_each(tinyir::Function::compact);
        verify_module(m).unwrap();
    }

    fn run_fn(m: &Module, name: &str, args: &[u64]) -> Option<u64> {
        let mut mem = PagedMemory::new();
        let globals = layout_globals(m, &mut mem, 0x1000_0000);
        let mut i = Interp::new(
            m,
            &mut mem,
            &globals,
            0x7f00_0000_0000,
            0x7f00_0100_0000,
            0x6000_0000_0000,
            1_000_000_000,
        );
        i.call(m.func_by_name(name).unwrap(), args).unwrap()
    }

    fn figure8_module() -> Module {
        // int a,b,c,d; a+=b; c+=d; array[a+c]  (locals via allocas)
        let mut mb = ModuleBuilder::new("m", "m.c");
        let arr = mb.global_zeroed("array", Ty::I64, 64);
        mb.define("f", vec![Ty::I64, Ty::I64, Ty::I64, Ty::I64], Some(Ty::I64), |fb| {
            let a = fb.alloca(Ty::I64, 1);
            let c = fb.alloca(Ty::I64, 1);
            fb.store(fb.arg(0), a);
            fb.store(fb.arg(2), c);
            let av = fb.load(a, Ty::I64);
            let s1 = fb.add(av, fb.arg(1), Ty::I64);
            fb.store(s1, a); // a += b
            let cv = fb.load(c, Ty::I64);
            let s2 = fb.add(cv, fb.arg(3), Ty::I64);
            fb.store(s2, c); // c += d
            let a2 = fb.load(a, Ty::I64);
            let c2 = fb.load(c, Ty::I64);
            let idx = fb.add(a2, c2, Ty::I64);
            let v = fb.load_elem(fb.global(arr), idx, Ty::I64);
            fb.ret(Some(v));
        });
        mb.finish()
    }

    #[test]
    fn o1_pipeline_preserves_semantics_and_removes_slots() {
        let mut m = figure8_module();
        let before = run_fn(&m, "f", &[1, 2, 3, 4]);
        let stats = optimize(&mut m, OptLevel::O1);
        verify_module(&m).unwrap();
        assert_eq!(run_fn(&m, "f", &[1, 2, 3, 4]), before);
        assert_eq!(stats.promoted_allocas, 2);
        // Only the final array load remains as a memory access —
        // exactly the Figure 8 "case 2 becomes case 1" effect.
        assert_eq!(m.funcs[0].mem_access_instrs().len(), 1);
    }

    #[test]
    fn o0_is_identity() {
        let mut m = figure8_module();
        let before = m.funcs[0].live_instr_count();
        let stats = optimize(&mut m, OptLevel::O0);
        assert_eq!(stats, OptStats::default());
        assert_eq!(m.funcs[0].live_instr_count(), before);
    }

    #[test]
    fn o1_reduces_instruction_count_on_loops() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let x = mb.global_zeroed("x", Ty::F64, 128);
        mb.define("scale", vec![Ty::I64], None, |fb| {
            let factor = fb.alloca(Ty::F64, 1);
            fb.store(Value::f64(2.5), factor);
            fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
                let fv = fb.load(factor, Ty::F64);
                let v = fb.load_elem(fb.global(x), iv, Ty::F64);
                let s = fb.fmul(v, fv, Ty::F64);
                fb.store_elem(s, fb.global(x), iv, Ty::F64);
            });
            fb.ret(None);
        });
        let mut m = mb.finish();
        let before = m.funcs[0].live_instr_count();
        optimize(&mut m, OptLevel::O1);
        verify_module(&m).unwrap();
        assert!(m.funcs[0].live_instr_count() < before, "O1 should shrink the loop body");
    }
}
