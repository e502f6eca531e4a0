//! The protected-execution driver: run a SimISA process, routing every trap
//! through Safeguard, until completion or an unrecoverable failure.
//!
//! This is the analogue of the kernel delivering `SIGSEGV` to the
//! `LD_PRELOAD`ed handler and either `sigreturn`ing into the patched context
//! or falling through to the default action (process death).
//!
//! The trap loop is written once, in [`resume_protected`]; what it does to
//! *resume* after a repair is its caller's. [`run_protected`] runs on; a
//! fault-injection campaign runs on to the next state of the fault-free run
//! it kept, and ends the run there when the two are equal.

use crate::runtime::{DeclineReason, RecoveryOutcome, Safeguard};
use simx::{Process, RunExit, Trap, TrapKind};

/// Final outcome of a protected run.
#[derive(Clone, PartialEq, Debug)]
pub enum ProtectedExit {
    /// The program completed (possibly after recoveries).
    Completed {
        /// Raw-bit return value of the start function.
        result: Option<u64>,
        /// Number of successful recoveries along the way.
        recoveries: u64,
        /// Total modelled recovery time.
        recovery_ms: f64,
    },
    /// The program died on an unrecoverable trap.
    Crashed {
        /// The fatal trap.
        trap: Trap,
        /// Why Safeguard declined.
        reason: DeclineReason,
        /// Recoveries that *did* succeed before the fatal one.
        recoveries: u64,
    },
    /// Instruction budget exhausted (hang).
    Hung,
    /// The caller's `resume` ended the run (see [`resume_protected`]): it
    /// knows the rest without running it — a campaign that found the
    /// repaired process back on its fault-free path. The process stands
    /// where it was left, so its outputs are not the finished run's.
    Stopped {
        /// Number of successful recoveries up to there.
        recoveries: u64,
        /// Total modelled recovery time.
        recovery_ms: f64,
    },
}

/// Run `process` to completion under `safeguard`'s protection.
///
/// `max_recoveries` bounds the number of repairs (a single injected fault
/// can legitimately require several activations — §5.3 — but a runaway
/// repair loop means something is structurally wrong).
pub fn run_protected(
    process: &mut Process,
    safeguard: &mut Safeguard,
    max_recoveries: u64,
) -> ProtectedExit {
    let first = process.run();
    let hooks = &telemetry::NoTelemetry;
    resume_protected(|p, _| Some(p.run()), process, first, safeguard, max_recoveries, hooks)
}

/// The recovery loop behind [`run_protected`], from any stop: `process` has
/// just stopped with `exit`; route that exit and every later one through
/// [`Safeguard::handle_trap_with_hooks`] until the program completes or
/// dies. A caller already holding a process frozen on its trap (a campaign's
/// unprotected classification run) resumes from that state instead of
/// re-executing to it.
///
/// How the process runs on after a repair is the caller's: `resume` gets the
/// process, re-entering at the (patched) faulting PC, and the repairs made
/// so far, and returns the next exit — from whichever
/// [`ExecutionEngine`](simx::ExecutionEngine) it drives, so campaigns run
/// the protected path on the compiled backend — or `None` to end the run
/// there as [`ProtectedExit::Stopped`]. Every repair re-executes an
/// instruction already charged a step, so a repaired run stands `recoveries`
/// steps ahead of the fault-free run at the same machine state. The
/// simulation loop stays uninstrumented — hooks only observe its trap exits
/// — and trap handling is engine-agnostic: both engines freeze the faulting
/// frame identically.
pub fn resume_protected(
    mut resume: impl FnMut(&mut Process, u64) -> Option<RunExit>,
    process: &mut Process,
    mut exit: RunExit,
    safeguard: &mut Safeguard,
    max_recoveries: u64,
    hooks: &dyn telemetry::Hooks,
) -> ProtectedExit {
    let mut recoveries = 0u64;
    let mut recovery_ms = 0.0f64;
    loop {
        match exit {
            RunExit::Done(result) => {
                return ProtectedExit::Completed { result, recoveries, recovery_ms }
            }
            RunExit::BreakHit => {} // injector breakpoints are consumed upstream
            RunExit::Trapped(trap) => {
                if trap.kind == TrapKind::OutOfFuel {
                    return ProtectedExit::Hung;
                }
                if recoveries >= max_recoveries {
                    return ProtectedExit::Crashed {
                        trap,
                        reason: DeclineReason::SameAddress,
                        recoveries,
                    };
                }
                match safeguard.handle_trap_with_hooks(process, trap, hooks) {
                    RecoveryOutcome::Recovered { time } => {
                        recoveries += 1;
                        recovery_ms += time.total_ms();
                    }
                    RecoveryOutcome::NotRecovered(reason) => {
                        return ProtectedExit::Crashed { trap, reason, recoveries }
                    }
                }
            }
        }
        match resume(process, recoveries) {
            Some(next) => exit = next,
            None => return ProtectedExit::Stopped { recoveries, recovery_ms },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armor::run_armor;
    use simx::{compile_module, DestRef, ExecutionEngine, Instrument, InterpEngine, ModuleId};
    use tinyir::builder::ModuleBuilder;
    use tinyir::{Ty, Value};

    /// End-to-end: compile an app with Armor + DIEs, corrupt an index
    /// register mid-run, and watch Safeguard repair it.
    #[test]
    fn recovers_corrupted_index_register() {
        // sum = Σ table[i*2 + 1] for i in 0..n — a real address computation.
        let mut mb = ModuleBuilder::new("app", "app.c");
        let table =
            mb.global_init("table", Ty::I64, 64, tinyir::GlobalInit::I64s((0..64).collect()));
        mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
            let acc = fb.alloca(Ty::I64, 1);
            fb.store(Value::i64(0), acc);
            fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
                let i2 = fb.mul(iv, Value::i64(2), Ty::I64);
                let idx = fb.add(i2, Value::i64(1), Ty::I64);
                let v = fb.load_elem(fb.global(table), idx, Ty::I64);
                let a = fb.load(acc, Ty::I64);
                let s = fb.add(a, v, Ty::I64);
                fb.store(s, acc);
            });
            let r = fb.load(acc, Ty::I64);
            fb.ret(Some(r));
        });
        let mut m = mb.finish();
        opt::optimize(&mut m, opt::OptLevel::O1);
        let armor_out = run_armor(&m);
        assert!(armor_out.stats.num_kernels >= 1);
        let mm = compile_module(&m, true, &armor_out.die_requests);

        let expected: i64 = (0..10).map(|i| i * 2 + 1).sum();

        // Fault-free baseline.
        let mut p = Process::new(mm.clone(), vec![]);
        p.start("main", &[10]);
        let mut sg = Safeguard::new();
        sg.protect(ModuleId(0), &armor_out);
        match run_protected(&mut p, &mut sg, 16) {
            ProtectedExit::Completed { result, recoveries, .. } => {
                assert_eq!(result, Some(expected as u64));
                assert_eq!(recoveries, 0);
            }
            other => panic!("baseline failed: {other:?}"),
        }

        // Now corrupt: break right after the table load executes its 4th
        // iteration, then smash the register holding the index.
        let fid = mm.func_by_name("main").unwrap();
        let (load_idx, mem_op) = mm.funcs[fid.0 as usize]
            .instrs
            .iter()
            .enumerate()
            .find_map(|(i, inst)| {
                // The load may have folded CISC-style into its consumer;
                // search any instruction with an indexed memory operand
                // that is not a frame-slot access.
                inst.mem_operand()
                    .filter(|mo| mo.index.is_some() && mo.base != Some(simx::FP))
                    .map(|mo| (i, *mo))
            })
            .expect("indexed memory operand in machine code");
        // The index register is redefined every iteration, so a flip must
        // land in the window between its definition (the `add`) and its use
        // (the folded load): break right after the defining instruction.
        let idx_reg = mem_op.index.unwrap();
        let def_idx = mm.funcs[fid.0 as usize].instrs[..load_idx]
            .iter()
            .rposition(|inst| inst.dest_reg() == Some(idx_reg))
            .expect("defining instruction of the index register");
        let mut p = Process::new(mm, vec![]);
        p.start("main", &[10]);
        let mut stop = Instrument::stop_after(ModuleId(0), fid, def_idx, 4);
        assert_eq!(InterpEngine.run_instrumented(&mut p, &mut stop), RunExit::BreakHit);
        // Corrupt the just-written index register with a high bit flip.
        let old = p.read_reg(idx_reg);
        p.write_reg(idx_reg, old ^ (1 << 40));
        let mut sg = Safeguard::new();
        sg.protect(ModuleId(0), &armor_out);
        let rec = telemetry::Recorder::new();
        let first = p.run();
        match resume_protected(|p, _| Some(p.run()), &mut p, first, &mut sg, 16, &rec) {
            ProtectedExit::Completed { result, recoveries, recovery_ms } => {
                assert_eq!(result, Some(expected as u64), "output must be exact");
                assert!(recoveries >= 1, "at least one repair");
                assert!(recovery_ms > 1.0, "modelled recovery time accrues");
                // Every activation of the handler was a repair.
                let counters = rec.drain().counters;
                assert_eq!(counters.get("recovery.activations"), Some(&recoveries));
                assert_eq!(counters.get("recovery.recovered"), Some(&recoveries));
            }
            other => panic!("recovery failed: {other:?}"),
        }
        let _ = DestRef::Pc;
    }

    /// A genuine program bug (out-of-bounds by construction) must be
    /// declined by the same-address guard and crash, not silently
    /// "repaired" (paper footnote 2).
    #[test]
    fn genuine_bug_is_not_masked() {
        let mut mb = ModuleBuilder::new("app", "app.c");
        let g = mb.global_zeroed("arr", Ty::I64, 8);
        mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
            // idx = n * 1000 — legitimately out of range for n >= 1.
            let idx = fb.mul(fb.arg(0), Value::i64(1000), Ty::I64);
            let v = fb.load_elem(fb.global(g), idx, Ty::I64);
            fb.ret(Some(v));
        });
        let m = mb.finish();
        let armor_out = run_armor(&m);
        let mm = compile_module(&m, false, &armor_out.die_requests);
        let mut p = Process::new(mm, vec![]);
        p.start("main", &[5]);
        let mut sg = Safeguard::new();
        sg.protect(ModuleId(0), &armor_out);
        match run_protected(&mut p, &mut sg, 16) {
            ProtectedExit::Crashed { reason, recoveries, .. } => {
                assert_eq!(reason, DeclineReason::SameAddress);
                assert_eq!(recoveries, 0);
            }
            other => panic!("bug must crash: {other:?}"),
        }
    }

    /// A table entry naming a kernel the library does not contain (a dlsym
    /// miss) must decline with `KernelMissing`, not panic the handler.
    #[test]
    fn missing_kernel_symbol_declines() {
        let (m, armor_out) = out_of_bounds_app();
        let mut broken = armor_out.clone();
        let mut t2 = armor::RecoveryTable::new();
        for (k, e) in armor_out.table.iter() {
            t2.insert(
                *k,
                armor::TableEntry {
                    symbol: e.symbol.clone(),
                    kernel: tinyir::FuncId(9999),
                    params: e.params.clone(),
                },
            );
        }
        broken.table = t2;
        let mm = compile_module(&m, false, &broken.die_requests);
        let mut p = Process::new(mm, vec![]);
        p.start("main", &[5]);
        let mut sg = Safeguard::new();
        sg.protect(ModuleId(0), &broken);
        match run_protected(&mut p, &mut sg, 4) {
            ProtectedExit::Crashed { reason, .. } => {
                assert!(matches!(reason, DeclineReason::KernelMissing(_)), "{reason:?}");
            }
            other => panic!("must crash with a typed decline: {other:?}"),
        }
    }

    /// A table entry whose parameter list disagrees with the kernel's arity
    /// is a corrupted artefact: decline with `BadTable`.
    #[test]
    fn param_arity_mismatch_declines() {
        let (m, armor_out) = out_of_bounds_app();
        let mut broken = armor_out.clone();
        let mut t2 = armor::RecoveryTable::new();
        for (k, e) in armor_out.table.iter() {
            let mut params = e.params.clone();
            params.push(armor::ParamSpec::Const(0)); // one extra arg
            t2.insert(*k, armor::TableEntry { symbol: e.symbol.clone(), kernel: e.kernel, params });
        }
        broken.table = t2;
        let mm = compile_module(&m, false, &broken.die_requests);
        let mut p = Process::new(mm, vec![]);
        p.start("main", &[5]);
        let mut sg = Safeguard::new();
        sg.protect(ModuleId(0), &broken);
        match run_protected(&mut p, &mut sg, 4) {
            ProtectedExit::Crashed { reason, .. } => {
                assert!(matches!(reason, DeclineReason::BadTable(_)), "{reason:?}");
            }
            other => panic!("must crash with a typed decline: {other:?}"),
        }
    }

    /// A module whose table-indexed app faults at an address computation:
    /// arr[n*1000] for n=5 is far out of the 8-element global.
    fn out_of_bounds_app() -> (tinyir::Module, armor::ArmorOutput) {
        let mut mb = ModuleBuilder::new("app", "app.c");
        let g = mb.global_zeroed("arr", Ty::I64, 8);
        mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
            let idx = fb.mul(fb.arg(0), Value::i64(1000), Ty::I64);
            let v = fb.load_elem(fb.global(g), idx, Ty::I64);
            fb.ret(Some(v));
        });
        let m = mb.finish();
        let out = run_armor(&m);
        assert!(out.stats.num_kernels >= 1);
        (m, out)
    }

    /// Faults in an unprotected signal class (SIGFPE) propagate.
    #[test]
    fn non_segv_traps_propagate() {
        let mut mb = ModuleBuilder::new("app", "app.c");
        mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
            let q = fb.sdiv(Value::i64(100), fb.arg(0), Ty::I64);
            fb.ret(Some(q));
        });
        let m = mb.finish();
        let armor_out = run_armor(&m);
        let mm = compile_module(&m, false, &[]);
        let mut p = Process::new(mm, vec![]);
        p.start("main", &[0]);
        let mut sg = Safeguard::new();
        sg.protect(ModuleId(0), &armor_out);
        match run_protected(&mut p, &mut sg, 4) {
            ProtectedExit::Crashed { trap, reason, .. } => {
                assert_eq!(trap.kind, TrapKind::Fpe);
                assert_eq!(reason, DeclineReason::NotASegv);
            }
            other => panic!("{other:?}"),
        }
    }
}
