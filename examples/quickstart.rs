//! Quickstart: protect a tiny program with CARE, corrupt an index register
//! mid-run, and watch Safeguard repair the crash.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use care::prelude::*;
use simx::{CompiledEngine, ExecutionEngine};
use tinyir::builder::ModuleBuilder;
use tinyir::{Ty, Value};

fn main() {
    // 1. A small program with a real address computation:
    //    sum = Σ table[3*i + 1]  for i in 0..n
    let mut mb = ModuleBuilder::new("quickstart", "quickstart.c");
    let table = mb.global_init("table", Ty::I64, 256, tinyir::GlobalInit::I64s((0..256).collect()));
    mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
        let acc = fb.alloca(Ty::I64, 1);
        fb.store(Value::i64(0), acc);
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, i| {
            let i3 = fb.mul(i, Value::i64(3), Ty::I64);
            let idx = fb.add(i3, Value::i64(1), Ty::I64);
            let v = fb.load_elem(fb.global(table), idx, Ty::I64);
            let a = fb.load(acc, Ty::I64);
            let s = fb.add(a, v, Ty::I64);
            fb.store(s, acc);
        });
        let r = fb.load(acc, Ty::I64);
        fb.ret(Some(r));
    });
    let module = mb.finish();

    // 2. Compile with CARE at -O1: Armor builds one recovery kernel per
    //    protected memory access and a recovery table keyed by the debug
    //    tuple of each access.
    let app = care::compile(&module, OptLevel::O1);
    println!(
        "compiled: {} recovery kernels, {}-byte recovery table",
        app.armor.stats.num_kernels,
        app.armor.table.encoded_size()
    );

    let n = 50u64;
    let expected: i64 = (0..n as i64).map(|i| 3 * i + 1).sum();

    // 3. Fault-free run under protection (Safeguard is dormant).
    let (mut process, mut sg) = care::protected_process(&app, &[]);
    process.start("main", &[n]);
    match run_protected(&mut process, &mut sg, 8) {
        ProtectedExit::Completed { result, recoveries, .. } => {
            println!(
                "fault-free run: result = {} (expected {expected}), recoveries = {recoveries}",
                result.unwrap() as i64
            );
        }
        other => panic!("unexpected: {other:?}"),
    }

    // 4. Faulty run: stop right after the instruction that computes the
    //    array index on its 20th execution and flip a high bit of its
    //    destination register — the classic transient-fault scenario.
    let fid = app.machine.func_by_name("main").unwrap();
    let mf = &app.machine.funcs[fid.0 as usize];
    let (mem_idx, mem_op) = mf
        .instrs
        .iter()
        .enumerate()
        .find_map(|(i, inst)| inst.mem_operand().filter(|m| m.index.is_some()).map(|m| (i, *m)))
        .expect("an indexed memory operand");
    let idx_reg = mem_op.index.unwrap();
    let def_idx = mf.instrs[..mem_idx]
        .iter()
        .rposition(|inst| inst.dest_reg() == Some(idx_reg))
        .expect("index-defining instruction");

    let (mut process, mut sg) = care::protected_process(&app, &[]);
    process.start("main", &[n]);
    let mut stop = Instrument::stop_after(ModuleId(0), fid, def_idx, 20);
    let engine = CompiledEngine::for_image(&process.image);
    assert_eq!(engine.run_instrumented(&mut process, &mut stop), RunExit::BreakHit);
    let clean = process.read_reg(idx_reg);
    process.write_reg(idx_reg, clean ^ (1 << 41));
    println!("injected: flipped bit 41 of {idx_reg} ({clean:#x} -> {:#x})", clean ^ (1 << 41));

    match run_protected(&mut process, &mut sg, 8) {
        ProtectedExit::Completed { result, recoveries, recovery_ms } => {
            println!(
                "faulty run: result = {} (expected {expected}), \
                 recovered {recoveries}x in {recovery_ms:.1} ms (modelled)",
                result.unwrap() as i64
            );
            assert_eq!(result.unwrap() as i64, expected, "output must be exact");
            assert!(recoveries > 0, "the flipped index must have needed a repair");
        }
        other => panic!("recovery failed: {other:?}"),
    }
}
