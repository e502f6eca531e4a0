//! Failure injection in the recovery path itself (DESIGN.md §6): Safeguard
//! must *decline and propagate* — never crash, hang, or mis-patch — when its
//! own artefacts are damaged or missing.

#[cfg(test)]
mod tests {
    use crate::driver::{resume_protected, run_protected, ProtectedExit};
    use crate::runtime::{DeclineKind, DeclineReason, Safeguard};
    use armor::run_armor;
    use simx::{
        compile_module, ExecutionEngine, Instrument, InterpEngine, ModuleId, Process, RunExit,
    };
    use tinyir::builder::ModuleBuilder;
    use tinyir::{Module, Ty, Value};

    /// An app whose loop index can be corrupted into a recoverable SIGSEGV.
    fn victim() -> Module {
        let mut mb = ModuleBuilder::new("victim", "victim.c");
        let t = mb.global_init("t", Ty::I64, 64, tinyir::GlobalInit::I64s((0..64).collect()));
        mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
            let acc = fb.alloca(Ty::I64, 1);
            fb.store(Value::i64(0), acc);
            fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
                let i2 = fb.mul(iv, Value::i64(2), Ty::I64);
                let v = fb.load_elem(fb.global(t), i2, Ty::I64);
                let a = fb.load(acc, Ty::I64);
                let s = fb.add(a, v, Ty::I64);
                fb.store(s, acc);
            });
            let r = fb.load(acc, Ty::I64);
            fb.ret(Some(r));
        });
        mb.finish()
    }

    /// Set up a process frozen right after the index-defining instruction,
    /// with the index register corrupted.
    fn corrupted_process(armor_dies: bool) -> (Process, armor::ArmorOutput) {
        let m = victim();
        let armor_out = run_armor(&m);
        let dies = if armor_dies { armor_out.die_requests.clone() } else { vec![] };
        // Register mode folds the gep into an indexed operand — the shape
        // whose index register we corrupt.
        let mm = compile_module(&m, true, &dies);
        let fid = mm.func_by_name("main").unwrap();
        let (mem_idx, mem_op) = mm.funcs[fid.0 as usize]
            .instrs
            .iter()
            .enumerate()
            .find_map(|(i, inst)| {
                inst.mem_operand()
                    .filter(|mo| mo.index.is_some() && mo.base != Some(simx::FP))
                    .map(|mo| (i, *mo))
            })
            .expect("indexed memory operand");
        let idx_reg = mem_op.index.unwrap();
        let def_idx = mm.funcs[fid.0 as usize].instrs[..mem_idx]
            .iter()
            .rposition(|inst| inst.dest_reg() == Some(idx_reg))
            .unwrap();
        let mut p = Process::new(mm, vec![]);
        p.start("main", &[20]);
        let mut stop = Instrument::stop_after(ModuleId(0), fid, def_idx, 5);
        assert_eq!(InterpEngine.run_instrumented(&mut p, &mut stop), RunExit::BreakHit);
        let v = p.read_reg(idx_reg);
        p.write_reg(idx_reg, v ^ (1 << 44));
        (p, armor_out)
    }

    #[test]
    fn baseline_recovers() {
        let (mut p, armor_out) = corrupted_process(true);
        let mut sg = Safeguard::new();
        sg.protect(ModuleId(0), &armor_out);
        match run_protected(&mut p, &mut sg, 8) {
            ProtectedExit::Completed { recoveries, .. } => assert!(recoveries >= 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unprotected_module_declines_cleanly() {
        let (mut p, _armor_out) = corrupted_process(true);
        let mut sg = Safeguard::new(); // nothing registered
        match run_protected(&mut p, &mut sg, 8) {
            ProtectedExit::Crashed { reason, .. } => {
                assert_eq!(reason, DeclineReason::UnprotectedModule);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corrupted_recovery_table_declines_cleanly() {
        let (mut p, mut armor_out) = corrupted_process(true);
        // Smash the table by replacing it with garbage entries: Safeguard
        // must detect the damage during decode, not misbehave.
        let mut sg = Safeguard::new();
        armor_out.table = {
            let bytes = armor_out.table.encode();
            let mut broken = bytes.clone();
            for b in broken.iter_mut().skip(4) {
                *b = b.wrapping_add(97);
            }
            // Decode of broken bytes must fail cleanly (no over-allocation
            // abort, no panic)...
            assert!(armor::RecoveryTable::decode(&broken).is_err());
            let mut truncated = bytes.clone();
            truncated.truncate(bytes.len().saturating_sub(5));
            assert!(armor::RecoveryTable::decode(&truncated).is_err());
            // ...so hand Safeguard an empty-but-valid table instead to model
            // a "kernel missing" artefact mismatch.
            armor::RecoveryTable::new()
        };
        sg.protect(ModuleId(0), &armor_out);
        match run_protected(&mut p, &mut sg, 8) {
            ProtectedExit::Crashed { reason, .. } => {
                assert!(matches!(reason, DeclineReason::NoKernelForKey(_)), "{reason:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_dies_decline_as_param_unavailable() {
        // Compile WITHOUT emitting the DIEs Armor asked for: the kernel
        // exists but its parameters cannot be located.
        let (mut p, armor_out) = corrupted_process(false);
        let needs_dies = armor_out
            .table
            .iter()
            .any(|(_, e)| e.params.iter().any(|s| matches!(s, armor::ParamSpec::Die { .. })));
        let mut sg = Safeguard::new();
        sg.protect(ModuleId(0), &armor_out);
        match run_protected(&mut p, &mut sg, 8) {
            ProtectedExit::Crashed { reason, .. } if needs_dies => {
                assert!(matches!(reason, DeclineReason::ParamUnavailable(_)), "{reason:?}");
            }
            ProtectedExit::Completed { .. } if !needs_dies => {}
            other => panic!("needs_dies={needs_dies}: {other:?}"),
        }
    }

    #[test]
    fn handler_statistics_track_declines() {
        let (mut p, _armor_out) = corrupted_process(true);
        let rec = telemetry::Recorder::new();
        let first = p.run();
        let mut sg = Safeguard::new();
        let _ = resume_protected(|p, _| Some(p.run()), &mut p, first, &mut sg, 8, &rec);
        let counters = rec.drain().counters;
        assert_eq!(counters.get("recovery.activations"), Some(&1));
        assert_eq!(counters.get("recovery.recovered"), None);
        assert_eq!(counters.get(DeclineKind::UnprotectedModule.counter_name()), Some(&1));
    }

    #[test]
    fn max_recoveries_bounds_repair_loops() {
        // With an artificially broken patch strategy (base-first on an
        // index corruption the kernel can't see), the driver must not loop
        // forever.
        let (mut p, armor_out) = corrupted_process(true);
        let mut sg = Safeguard::new();
        sg.protect(ModuleId(0), &armor_out);
        // Zero budget: the very first trap crashes.
        match run_protected(&mut p, &mut sg, 0) {
            ProtectedExit::Crashed { recoveries, .. } => assert_eq!(recoveries, 0),
            other => panic!("{other:?}"),
        }
    }
}
