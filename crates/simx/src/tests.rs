//! Differential and behavioural tests for the SimISA backend and engine.

use crate::*;
use tinyir::builder::ModuleBuilder;
use tinyir::interp::{layout_globals, Interp};
use tinyir::mem::PagedMemory;
use tinyir::{ICmp, Intrinsic, Module, Ty, Value};

/// Run `func` both on the reference interpreter and on the compiled
/// SimISA machine (at the given regalloc setting) and require identical
/// results.
fn differential(m: &Module, func: &str, args: &[u64], regalloc: bool) -> Option<u64> {
    // Interpreter.
    let mut imem = PagedMemory::new();
    let globals = layout_globals(m, &mut imem, 0x1000_0000);
    let mut interp = Interp::new(
        m,
        &mut imem,
        &globals,
        0x7f00_0000_0000,
        0x7f00_0100_0000,
        0x6000_0000_0000,
        1_000_000_000,
    );
    let iret = interp.call(m.func_by_name(func).unwrap(), args).expect("interp ok");

    // Machine.
    let mm = compile_module(m, regalloc, &[]);
    let mut p = Process::new(mm, vec![]);
    p.start(func, args);
    match p.run() {
        RunExit::Done(v) => {
            assert_eq!(v, iret, "machine result != interpreter result");
            v
        }
        other => panic!("machine did not finish: {other:?}"),
    }
}

fn diff_both(m: &Module, func: &str, args: &[u64]) -> Option<u64> {
    let a = differential(m, func, args, false);
    let b = differential(m, func, args, true);
    assert_eq!(a, b);
    a
}

#[test]
fn straightline_arith() {
    let mut mb = ModuleBuilder::new("m", "m.c");
    mb.define("poly", vec![Ty::I64, Ty::I64], Some(Ty::I64), |fb| {
        let a2 = fb.mul(fb.arg(0), fb.arg(0), Ty::I64);
        let ab = fb.mul(fb.arg(0), fb.arg(1), Ty::I64);
        let s = fb.add(a2, ab, Ty::I64);
        let t = fb.sub(s, Value::i64(7), Ty::I64);
        fb.ret(Some(t));
    });
    let m = mb.finish();
    assert_eq!(diff_both(&m, "poly", &[5, 3]), Some(25 + 15 - 7));
}

#[test]
fn loops_and_arrays() {
    let mut mb = ModuleBuilder::new("m", "m.c");
    let g = mb.global_zeroed("data", Ty::F64, 64);
    mb.define("fill_sum", vec![Ty::I64], Some(Ty::F64), |fb| {
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
            let x = fb.cast(tinyir::CastOp::SiToFp, iv, Ty::F64);
            let x2 = fb.fmul(x, x, Ty::F64);
            fb.store_elem(x2, fb.global(g), iv, Ty::F64);
        });
        let acc = fb.alloca(Ty::F64, 1);
        fb.store(Value::f64(0.0), acc);
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
            let v = fb.load_elem(fb.global(g), iv, Ty::F64);
            let a = fb.load(acc, Ty::F64);
            let s = fb.fadd(a, v, Ty::F64);
            fb.store(s, acc);
        });
        let r = fb.load(acc, Ty::F64);
        fb.ret(Some(r));
    });
    let m = mb.finish();
    let expected: f64 = (0..10).map(|i| (i * i) as f64).sum();
    let bits = diff_both(&m, "fill_sum", &[10]).unwrap();
    assert_eq!(f64::from_bits(bits), expected);
}

#[test]
fn optimized_module_matches_machine() {
    // Run the O1 IR pipeline, then require interp == machine again.
    let mut mb = ModuleBuilder::new("m", "m.c");
    let g = mb.global_zeroed("out", Ty::I64, 32);
    mb.define("tri", vec![Ty::I64], Some(Ty::I64), |fb| {
        let acc = fb.alloca(Ty::I64, 1);
        fb.store(Value::i64(0), acc);
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
            let a = fb.load(acc, Ty::I64);
            let s = fb.add(a, iv, Ty::I64);
            fb.store(s, acc);
            fb.store_elem(s, fb.global(g), iv, Ty::I64);
        });
        let r = fb.load(acc, Ty::I64);
        fb.ret(Some(r));
    });
    let mut m = mb.finish();
    opt::optimize(&mut m, opt::OptLevel::O1);
    tinyir::verify::verify_module(&m).unwrap();
    assert_eq!(diff_both(&m, "tri", &[10]), Some(45));
}

#[test]
fn calls_and_recursion() {
    let mut mb = ModuleBuilder::new("m", "m.c");
    let fib = mb.declare("fib", vec![Ty::I64], Some(Ty::I64));
    mb.define("fib", vec![Ty::I64], Some(Ty::I64), |fb| {
        let base = fb.icmp(ICmp::Sle, fb.arg(0), Value::i64(1));
        let out = fb.alloca(Ty::I64, 1);
        fb.if_then_else(
            base,
            |fb| fb.store(fb.arg(0), out),
            |fb| {
                let n1 = fb.sub(fb.arg(0), Value::i64(1), Ty::I64);
                let n2 = fb.sub(fb.arg(0), Value::i64(2), Ty::I64);
                let f1 = fb.call(fib, vec![n1]);
                let f2 = fb.call(fib, vec![n2]);
                let s = fb.add(f1, f2, Ty::I64);
                fb.store(s, out);
            },
        );
        let r = fb.load(out, Ty::I64);
        fb.ret(Some(r));
    });
    let m = mb.finish();
    assert_eq!(diff_both(&m, "fib", &[12]), Some(144));
}

#[test]
fn out_of_bounds_traps_with_fault_address() {
    let mut mb = ModuleBuilder::new("m", "m.c");
    let g = mb.global_zeroed("arr", Ty::F64, 16);
    mb.define("peek", vec![Ty::I64], Some(Ty::F64), |fb| {
        let v = fb.load_elem(fb.global(g), fb.arg(0), Ty::F64);
        fb.ret(Some(v));
    });
    let m = mb.finish();
    for regalloc in [false, true] {
        let mm = compile_module(&m, regalloc, &[]);
        let mut p = Process::new(mm, vec![]);
        p.start("peek", &[1 << 30]);
        match p.run() {
            RunExit::Trapped(t) => {
                assert!(matches!(t.kind, TrapKind::Segv(_)), "{t:?}");
                // The faulting PC must map back to an instruction with a
                // memory operand.
                let (mid, fid, idx) = p.image.locate_pc(t.pc).unwrap();
                let inst =
                    &p.image.modules[mid.0 as usize].module.funcs[fid.0 as usize].instrs[idx];
                assert!(inst.mem_operand().is_some());
            }
            other => panic!("expected trap, got {other:?}"),
        }
    }
}

#[test]
fn o1_uses_base_index_memory_operands() {
    // The array store in a loop must lower to a disp(base,index,scale)
    // operand under regalloc — the shape Safeguard patches.
    let mut mb = ModuleBuilder::new("m", "m.c");
    let g = mb.global_zeroed("arr", Ty::F64, 64);
    mb.define("fill", vec![Ty::I64], None, |fb| {
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
            fb.store_elem(Value::f64(1.0), fb.global(g), iv, Ty::F64);
        });
        fb.ret(None);
    });
    let mut m = mb.finish();
    opt::optimize(&mut m, opt::OptLevel::O1);
    let mm = compile_module(&m, true, &[]);
    let has_indexed =
        mm.funcs.iter().flat_map(|f| &f.instrs).any(|i| {
            i.mem_operand().map(|mo| mo.index.is_some() && mo.scale == 8).unwrap_or(false)
        });
    assert!(has_indexed, "expected an indexed memory operand");
}

#[test]
fn line_table_keys_memory_accesses() {
    let mut mb = ModuleBuilder::new("m", "m.c");
    let g = mb.global_zeroed("arr", Ty::F64, 64);
    mb.define("touch", vec![Ty::I64], Some(Ty::F64), |fb| {
        let v = fb.load_elem(fb.global(g), fb.arg(0), Ty::F64);
        fb.ret(Some(v));
    });
    let m = mb.finish();
    let load_loc = m.funcs[0]
        .instrs
        .iter()
        .find(|i| matches!(i.kind, tinyir::InstrKind::Load { .. }))
        .unwrap()
        .loc
        .unwrap();
    for regalloc in [false, true] {
        let mm = compile_module(&m, regalloc, &[]);
        // Find the machine instruction with the array memory operand and
        // check the line table maps its offset to the load's location.
        let f = &mm.funcs[0];
        let (idx, _) = f
            .instrs
            .iter()
            .enumerate()
            .rfind(|(_, i)| {
                matches!(i, MInst::Mov { src: Src::Mem(mo, _), .. } if mo.base != Some(FP))
            })
            .unwrap();
        let off = f.offset_of(idx);
        assert_eq!(mm.debug.loc_for_offset(off), Some(load_loc));
    }
}

#[test]
fn breakpoint_stops_after_nth_execution() {
    let mut mb = ModuleBuilder::new("m", "m.c");
    let g = mb.global_zeroed("arr", Ty::I64, 64);
    mb.define("count", vec![Ty::I64], None, |fb| {
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
            fb.store_elem(iv, fb.global(g), iv, Ty::I64);
        });
        fb.ret(None);
    });
    let m = mb.finish();
    let mm = compile_module(&m, false, &[]);
    // Find the store instruction in the machine code.
    let fid = mm.func_by_name("count").unwrap();
    let store_idx = mm.funcs[fid.0 as usize]
        .instrs
        .iter()
        .position(|i| matches!(i, MInst::Store { mem, .. } if mem.base != Some(FP)))
        .unwrap();
    let mut p = Process::new(mm, vec![]);
    p.start("count", &[10]);
    let (fresh, mut twin) = (p.clone(), p.clone());
    // The `break_at` shim, exactly as carebench uses it: set, run, resume.
    p.break_at = Some((ModuleId(0), fid, store_idx, 4));
    assert_eq!(p.run(), RunExit::BreakHit);
    assert_eq!(p.break_at, None, "the run clears the shim");
    // 4 executions done: arr[3] was just written.
    assert_eq!(p.read_global("arr", 3, Ty::I64), Some(3));
    assert_eq!(p.read_global("arr", 4, Ty::I64), Some(0));
    // It stops where the one-entry instrument it builds does.
    let stop = &mut Instrument::stop_after(ModuleId(0), fid, store_idx, 4);
    let twin_exit = InterpEngine.run_instrumented(&mut twin, stop);
    assert_eq!((twin_exit, twin.steps), (RunExit::BreakHit, p.steps));
    // Resuming finishes the run where a plain run ends; so does every run
    // with the profile shim on, also one whose budget runs out (carebench's
    // golden runs and trap search count on both).
    let end = |q: &mut Process| {
        let exit = q.run();
        (exit, q.steps, q.fuel, q.trap_count, q.snapshot_global("arr", 512))
    };
    let fueled = |fuel| {
        let mut q = fresh.clone();
        q.fuel = fuel;
        q
    };
    let plain = |fuel| end(&mut fueled(fuel));
    let resumed = end(&mut p);
    assert_eq!(resumed, plain(u64::MAX));
    assert_eq!((resumed.0, p.read_global("arr", 9, Ty::I64)), (RunExit::Done(None), Some(9)));
    for fuel in [u64::MAX, 25] {
        let mut profiled = fueled(fuel);
        profiled.enable_profile();
        assert_eq!(end(&mut profiled), plain(fuel), "fuel {fuel}");
    }
}

#[test]
fn shared_library_call_via_plt() {
    // App declares `scale2`; the library defines it.
    let mut app_b = ModuleBuilder::new("app", "app.c");
    let ext = app_b.declare("scale2", vec![Ty::F64], Some(Ty::F64));
    app_b.define("main", vec![Ty::F64], Some(Ty::F64), |fb| {
        let r = fb.call(ext, vec![fb.arg(0)]);
        fb.ret(Some(r));
    });
    let app = app_b.finish();

    let mut lib_b = ModuleBuilder::new("libscale", "scale.c");
    lib_b.define("scale2", vec![Ty::F64], Some(Ty::F64), |fb| {
        let r = fb.fmul(fb.arg(0), Value::f64(2.0), Ty::F64);
        fb.ret(Some(r));
    });
    let lib = lib_b.finish();

    let mm_app = compile_module(&app, true, &[]);
    let mm_lib = compile_module(&lib, true, &[]);
    let mut p = Process::new(mm_app, vec![mm_lib.into()]);
    p.start("main", &[21.0f64.to_bits()]);
    match p.run() {
        RunExit::Done(Some(bits)) => assert_eq!(f64::from_bits(bits), 42.0),
        other => panic!("{other:?}"),
    }
}

#[test]
fn profile_counts_dynamic_executions() {
    let mut mb = ModuleBuilder::new("m", "m.c");
    mb.define("spin", vec![Ty::I64], None, |fb| {
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
            let _ = fb.mul(iv, iv, Ty::I64);
        });
        fb.ret(None);
    });
    let m = mb.finish();
    let mm = compile_module(&m, false, &[]);
    let mut p = Process::new(mm, vec![]);
    let mut instr = Instrument::profiling(&p.image);
    p.start("spin", &[7]);
    assert!(matches!(InterpEngine.run_instrumented(&mut p, &mut instr), RunExit::Done(None)));
    let prof = instr.profile.as_ref().unwrap();
    // Some instruction in the loop body executed exactly 7 times.
    assert!(prof[0][0].contains(&7));
    assert!(p.steps > 0);
}

#[test]
fn fuel_exhaustion_is_a_hang_trap() {
    let mut mb = ModuleBuilder::new("m", "m.c");
    mb.define("forever", vec![], None, |fb| {
        let bb = fb.new_block("spin");
        fb.br(bb);
        fb.switch_to(bb);
        fb.br(bb);
    });
    let m = mb.finish();
    let mm = compile_module(&m, false, &[]);
    let mut p = Process::new(mm, vec![]);
    p.start("forever", &[]);
    p.fuel = 10_000;
    match p.run() {
        RunExit::Trapped(t) => assert_eq!(t.kind, TrapKind::OutOfFuel),
        other => panic!("{other:?}"),
    }
}

#[test]
fn phi_swap_cycles_sequentialize_correctly() {
    // A loop that swaps two values every iteration: after mem2reg this is
    // two phis feeding each other — the parallel-copy cycle the codegen
    // must break through a scratch register.
    let mut mb = ModuleBuilder::new("m", "m.c");
    mb.define("swapper", vec![Ty::I64, Ty::I64, Ty::I64], Some(Ty::I64), |fb| {
        let xa = fb.alloca(Ty::I64, 1);
        let ya = fb.alloca(Ty::I64, 1);
        fb.store(fb.arg(0), xa);
        fb.store(fb.arg(1), ya);
        fb.for_loop(Value::i64(0), fb.arg(2), |fb, _iv| {
            let x = fb.load(xa, Ty::I64);
            let y = fb.load(ya, Ty::I64);
            fb.store(y, xa); // x' = y
            fb.store(x, ya); // y' = x
        });
        let x = fb.load(xa, Ty::I64);
        let y = fb.load(ya, Ty::I64);
        let two_x = fb.mul(x, Value::i64(2), Ty::I64);
        let r = fb.add(two_x, y, Ty::I64);
        fb.ret(Some(r));
    });
    let mut m = mb.finish();
    opt::optimize(&mut m, opt::OptLevel::O1);
    // Odd trip count: swapped once net. 2*b + a with (a,b,n)=(5,9,3).
    assert_eq!(diff_both(&m, "swapper", &[5, 9, 3]), Some(2 * 9 + 5));
    // Even trip count: identity. 2*a + b.
    assert_eq!(diff_both(&m, "swapper", &[5, 9, 4]), Some(2 * 5 + 9));
}

#[test]
fn three_way_phi_rotation_cycles() {
    // Rotate three values through a loop: a->b->c->a. Forces a 3-cycle in
    // the phi parallel copy.
    let mut mb = ModuleBuilder::new("m", "m.c");
    mb.define("rotator", vec![Ty::I64, Ty::I64, Ty::I64, Ty::I64], Some(Ty::I64), |fb| {
        let aa = fb.alloca(Ty::I64, 1);
        let ba = fb.alloca(Ty::I64, 1);
        let ca = fb.alloca(Ty::I64, 1);
        fb.store(fb.arg(0), aa);
        fb.store(fb.arg(1), ba);
        fb.store(fb.arg(2), ca);
        fb.for_loop(Value::i64(0), fb.arg(3), |fb, _iv| {
            let a = fb.load(aa, Ty::I64);
            let b = fb.load(ba, Ty::I64);
            let c = fb.load(ca, Ty::I64);
            fb.store(c, aa);
            fb.store(a, ba);
            fb.store(b, ca);
        });
        let a = fb.load(aa, Ty::I64);
        let b = fb.load(ba, Ty::I64);
        let c = fb.load(ca, Ty::I64);
        let a4 = fb.mul(a, Value::i64(4), Ty::I64);
        let b2 = fb.mul(b, Value::i64(2), Ty::I64);
        let s = fb.add(a4, b2, Ty::I64);
        let r = fb.add(s, c, Ty::I64);
        fb.ret(Some(r));
    });
    let mut m = mb.finish();
    opt::optimize(&mut m, opt::OptLevel::O1);
    // One rotation: (a,b,c) = (c0,a0,b0). With (1,2,3): (3,1,2) -> 4*3+2*1+2 = 16.
    assert_eq!(diff_both(&m, "rotator", &[1, 2, 3, 1]), Some(16));
    // Three rotations: identity -> 4*1+2*2+3 = 11.
    assert_eq!(diff_both(&m, "rotator", &[1, 2, 3, 3]), Some(11));
}

#[test]
fn deep_call_chains_respect_stack_limits() {
    // Deep recursion must hit the stack guard as a SIGSEGV, not corrupt
    // anything.
    let mut mb = ModuleBuilder::new("m", "m.c");
    let deep = mb.declare("deep", vec![Ty::I64], Some(Ty::I64));
    mb.define("deep", vec![Ty::I64], Some(Ty::I64), |fb| {
        let big = fb.alloca(Ty::I64, 512); // 4 KiB frame
        fb.store_elem(fb.arg(0), big, Value::i64(0), Ty::I64);
        let done = fb.icmp(ICmp::Sle, fb.arg(0), Value::i64(0));
        let out = fb.alloca(Ty::I64, 1);
        fb.if_then_else(
            done,
            |fb| fb.store(Value::i64(0), out),
            |fb| {
                let n1 = fb.sub(fb.arg(0), Value::i64(1), Ty::I64);
                let r = fb.call(deep, vec![n1]);
                fb.store(r, out);
            },
        );
        let r = fb.load(out, Ty::I64);
        fb.ret(Some(r));
    });
    let m = mb.finish();
    let mm = compile_module(&m, false, &[]);
    // Shallow recursion completes.
    let mut p = Process::new(mm.clone(), vec![]);
    p.start("deep", &[100]);
    assert!(matches!(p.run(), RunExit::Done(Some(0))));
    // Unbounded recursion overflows the 32 MiB stack -> Segv.
    let mut p = Process::new(mm, vec![]);
    p.start("deep", &[1_000_000]);
    match p.run() {
        RunExit::Trapped(t) => assert!(matches!(t.kind, TrapKind::Segv(_)), "{t:?}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn sub_word_types_round_trip_through_memory() {
    // i8/i16/i32 array traffic with sign-sensitive arithmetic.
    let mut mb = ModuleBuilder::new("m", "m.c");
    let g8 = mb.global_zeroed("a8", Ty::I8, 16);
    let g16 = mb.global_zeroed("a16", Ty::I16, 16);
    let g32 = mb.global_zeroed("a32", Ty::I32, 16);
    mb.define("subword", vec![Ty::I64], Some(Ty::I64), |fb| {
        // Store -n in each width, reload, sign-extend, sum.
        let neg = fb.sub(Value::i64(0), fb.arg(0), Ty::I64);
        let v8 = fb.cast(tinyir::CastOp::Trunc, neg, Ty::I8);
        let v16 = fb.cast(tinyir::CastOp::Trunc, neg, Ty::I16);
        let v32 = fb.cast(tinyir::CastOp::Trunc, neg, Ty::I32);
        fb.store_elem(v8, fb.global(g8), Value::i64(3), Ty::I8);
        fb.store_elem(v16, fb.global(g16), Value::i64(3), Ty::I16);
        fb.store_elem(v32, fb.global(g32), Value::i64(3), Ty::I32);
        let r8 = fb.load_elem(fb.global(g8), Value::i64(3), Ty::I8);
        let r16 = fb.load_elem(fb.global(g16), Value::i64(3), Ty::I16);
        let r32 = fb.load_elem(fb.global(g32), Value::i64(3), Ty::I32);
        let s8 = fb.sext(r8, Ty::I64);
        let s16 = fb.sext(r16, Ty::I64);
        let s32 = fb.sext(r32, Ty::I64);
        let t = fb.add(s8, s16, Ty::I64);
        let u = fb.add(t, s32, Ty::I64);
        fb.ret(Some(u));
    });
    let m = mb.finish();
    // -7 in each width sign-extends back to -7: total -21.
    assert_eq!(diff_both(&m, "subword", &[7]), Some((-21i64) as u64));
    // -200 truncated to i8 is +56 (two's complement wrap); i16/i32 keep
    // -200: total 56 - 200 - 200 = -344.
    assert_eq!(diff_both(&m, "subword", &[200]), Some((56i64 - 200 - 200) as u64));
}

// ---------------------------------------------------------------------------
// Fast-loop trap precision: `run()` is the fast loop, and an instrumented
// run is that loop stepped one instruction at a time (`InterpEngine`'s) or
// the compiled engine's. These tests hold them side by side on the same
// trapping program and require the frozen machine states to be
// bit-identical — PC on the faulting instruction, pre-fault registers, and
// exact `steps`/`fuel` accounting (Table 4's latency buckets and hang
// detection depend on the counters).
// ---------------------------------------------------------------------------

/// A module whose `main(n, k)` loops `n` times accumulating into a global,
/// then triggers the requested fault. `k` parametrises the faulting access.
fn trapping_module(fault: &str) -> Module {
    let mut mb = ModuleBuilder::new("trapper", "trapper.c");
    let acc = mb.global_zeroed("acc", Ty::I64, 8);
    mb.define("main", vec![Ty::I64, Ty::I64], Some(Ty::I64), |fb| {
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
            let a = fb.load_elem(fb.global(acc), Value::i64(0), Ty::I64);
            let s = fb.add(a, iv, Ty::I64);
            fb.store_elem(s, fb.global(acc), Value::i64(0), Ty::I64);
        });
        let v = match fault {
            // Index far past the mapped global: unmapped page (SIGSEGV).
            "segv" => fb.load_elem(fb.global(acc), fb.arg(1), Ty::I64),
            // Byte-offset the base pointer: misaligned i64 load (SIGBUS).
            "bus" => {
                let p = fb.gep(fb.global(acc), fb.arg(1), 1);
                fb.load(p, Ty::I64)
            }
            // Divide by the zero in arg(1) (SIGFPE).
            "fpe" => fb.sdiv(fb.arg(0), fb.arg(1), Ty::I64),
            // No fault: run to completion (used by the fuel test).
            _ => fb.load_elem(fb.global(acc), Value::i64(0), Ty::I64),
        };
        fb.ret(Some(v));
    });
    mb.finish()
}

/// Run `main(args)` on the fast loop, then profiling on the stepping
/// reference and on the compiled engine, with the given fuel, and require
/// bit-identical frozen states.
fn assert_fast_slow_equal(m: &Module, args: &[u64], fuel: u64) -> RunExit {
    let mm = std::sync::Arc::new(compile_module(m, true, &[]));
    let mut fast = Process::new(std::sync::Arc::clone(&mm), vec![]);
    fast.start("main", args);
    fast.fuel = fuel;
    let fast_exit = fast.run();
    let compiled = CompiledEngine::for_image(&fast.image);
    for engine in [&InterpEngine as &dyn ExecutionEngine, &compiled] {
        let mut slow = Process::new(std::sync::Arc::clone(&mm), vec![]);
        slow.start("main", args);
        slow.fuel = fuel;
        let mut instr = Instrument::profiling(&slow.image);
        let slow_exit = engine.run_instrumented(&mut slow, &mut instr);
        assert_eq!(fast_exit, slow_exit, "exit status diverged");
        assert_eq!(fast.steps, slow.steps, "dynamic instruction count diverged");
        assert_eq!(fast.fuel, slow.fuel, "remaining fuel diverged");
        assert_eq!(fast.pc(), slow.pc(), "frozen PC diverged");
        assert_eq!(fast.sp, slow.sp, "stack pointer diverged");
        assert_eq!(fast.trap_count, slow.trap_count, "trap count diverged");
        assert_eq!(fast.frames.len(), slow.frames.len(), "frame depth diverged");
        for (ff, sf) in fast.frames.iter().zip(&slow.frames) {
            assert_eq!(ff.regs, sf.regs, "register file diverged");
            assert_eq!((ff.module, ff.func, ff.idx), (sf.module, sf.func, sf.idx));
        }
    }
    if let RunExit::Trapped(t) = fast_exit {
        // The PC must be frozen *on* the faulting instruction.
        assert_eq!(t.pc, fast.pc(), "trap PC is not the frozen PC");
    }
    fast_exit
}

#[test]
fn fast_loop_trap_states_match_instrumented_runs() {
    for (fault, args) in [("segv", [25, 1 << 30]), ("bus", [25, 3]), ("fpe", [25, 0])] {
        let kind = match assert_fast_slow_equal(&trapping_module(fault), &args, u64::MAX) {
            RunExit::Trapped(t) => t.kind,
            other => panic!("expected a {fault} trap, got {other:?}"),
        };
        let name = match kind {
            TrapKind::Segv(_) => "segv",
            TrapKind::Bus(_) => "bus",
            TrapKind::Fpe => "fpe",
            _ => "another trap",
        };
        assert_eq!(name, fault, "{kind:?}");
    }
}

#[test]
fn fast_loop_out_of_fuel_matches_instrumented_runs_at_every_budget() {
    // Sweep fuel budgets across the whole run so the OutOfFuel trap lands
    // on many different instructions (loop body, backedge, ret path); the
    // fast loop's block accounting must stop at exactly the same step.
    let m = trapping_module("none");
    let full = match assert_fast_slow_equal(&m, &[10, 0], u64::MAX) {
        RunExit::Done(_) => {
            let mm = std::sync::Arc::new(compile_module(&m, true, &[]));
            let mut p = Process::new(mm, vec![]);
            p.start("main", &[10, 0]);
            p.run();
            p.steps
        }
        other => panic!("expected completion, got {other:?}"),
    };
    for fuel in (0..full).step_by(7).chain([full - 1]) {
        let exit = assert_fast_slow_equal(&m, &[10, 0], fuel);
        match exit {
            RunExit::Trapped(t) => assert_eq!(t.kind, TrapKind::OutOfFuel),
            other => panic!("fuel {fuel}: expected OutOfFuel, got {other:?}"),
        }
    }
    // At exactly `full` fuel the run completes with zero fuel left.
    match assert_fast_slow_equal(&m, &[10, 0], full) {
        RunExit::Done(_) => {}
        other => panic!("expected completion at exact fuel, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// BreakSet: the one stop mechanism, of the trellis cursor and, one entry
// long, of every single breakpoint. Its contract is to stop where stepping
// the program one instruction at a time on the fast loop, and counting the
// target's executions, reaches each ordinal: same stop states, same
// accounting, and snapshots forked at a stop inherit the remaining fuel
// budget.
// ---------------------------------------------------------------------------

/// A loop-heavy module plus the hottest profiled instruction of `main`
/// (one executed at least `min_count` times).
fn hot_instruction(
    args: &[u64],
    min_count: u64,
) -> (std::sync::Arc<MachineModule>, tinyir::FuncId, usize, u64) {
    use tinyir::builder::ModuleBuilder;
    let mut mb = ModuleBuilder::new("m", "m.c");
    let g = mb.global_zeroed("out", Ty::I64, 64);
    mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
        let acc = fb.alloca(Ty::I64, 1);
        fb.store(Value::i64(0), acc);
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
            let a = fb.load(acc, Ty::I64);
            let s = fb.add(a, iv, Ty::I64);
            fb.store(s, acc);
            let slot = fb.srem(iv, Value::i64(64), Ty::I64);
            fb.store_elem(s, fb.global(g), slot, Ty::I64);
        });
        let r = fb.load(acc, Ty::I64);
        fb.ret(Some(r));
    });
    let m = mb.finish();
    let mm = std::sync::Arc::new(compile_module(&m, true, &[]));
    let mut p = Process::new(std::sync::Arc::clone(&mm), vec![]);
    let mut instr = Instrument::profiling(&p.image);
    p.start("main", args);
    assert!(matches!(InterpEngine.run_instrumented(&mut p, &mut instr), RunExit::Done(_)));
    let fid = mm.func_by_name("main").unwrap();
    let counts = &instr.profile.as_ref().unwrap()[0][fid.0 as usize];
    let (idx, &count) = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c >= min_count)
        .max_by_key(|&(_, &c)| c)
        .expect("hot instruction");
    (mm, fid, idx, count)
}

#[test]
fn break_set_stops_match_single_stepping() {
    let (mm, fid, idx, count) = hot_instruction(&[12], 8);
    let nths = [2u64, 5, count.min(8)];
    let state = |p: &Process| (p.steps, p.fuel, p.pc(), p.frame().regs, p.frame().idx);

    // Reference, sharing no code with `BreakSet`: step the fast loop one
    // instruction at a time, counting the target's executions by the top
    // frame before each step, and note the state right after each ordinal.
    let mut reference = Vec::new();
    let mut rp = Process::new(std::sync::Arc::clone(&mm), vec![]);
    rp.start("main", &[12]);
    rp.fuel = 100_000;
    let mut seen = 0;
    while reference.len() < nths.len() {
        let f = rp.frame();
        let executes_target = (f.module, f.func, f.idx) == (ModuleId(0), fid, idx);
        let next = rp.steps + 1;
        assert!(advance_to_step(&InterpEngine, &mut rp, next), "program ended early");
        seen += executes_target as u64;
        if executes_target && nths.contains(&seen) {
            reference.push(state(&rp));
        }
    }

    // Cursor, on either engine: all three ordinals registered up front, out
    // of order.
    let compiled = CompiledEngine::for_image(&rp.image);
    for engine in [&InterpEngine as &dyn ExecutionEngine, &compiled] {
        let mut instr = Instrument::default();
        for &n in &[nths[1], nths[0], nths[2]] {
            assert!(instr.stops.add(ModuleId(0), fid, idx, n));
        }
        assert!(!instr.stops.add(ModuleId(0), fid, idx, nths[0]), "duplicates must dedup");
        assert_eq!(instr.stops.remaining(), 3);
        let mut cp = Process::new(std::sync::Arc::clone(&mm), vec![]);
        cp.start("main", &[12]);
        cp.fuel = 100_000;
        let mut stops = Vec::new();
        for &n in &nths {
            assert_eq!(engine.run_instrumented(&mut cp, &mut instr), RunExit::BreakHit);
            assert_eq!(instr.stops.take_fired(), Some((ModuleId(0), fid, idx, n)));
            stops.push(state(&cp));
        }
        assert_eq!(stops, reference, "{}: steps, fuel, pc, registers and idx", engine.name());
        assert!(instr.stops.is_empty());
        assert!(matches!(cp.run(), RunExit::Done(_)));
    }
}

#[test]
fn break_set_snapshot_inherits_remaining_fuel_budget() {
    // The hang bound is a property of the whole run: a suffix forked at a
    // late stop must burn only the *remaining* budget, never a fresh full
    // one (which would let late injection points overshoot the bound ~2x).
    let (mm, fid, idx, count) = hot_instruction(&[40], 30);
    let mut cursor = Process::new(mm, vec![]);
    cursor.start("main", &[40]);
    let budget = 10_000u64;
    cursor.fuel = budget;
    let mut late = Instrument::stop_after(ModuleId(0), fid, idx, count - 2);
    assert_eq!(InterpEngine.run_instrumented(&mut cursor, &mut late), RunExit::BreakHit);
    assert!(cursor.steps > 0);

    let mut snap = cursor.clone();
    assert_eq!(snap.fuel, budget - snap.steps, "the fork must inherit the remaining budget");
    // Starve the suffix: whatever it does, it cannot execute past the
    // campaign-wide bound.
    match snap.run() {
        RunExit::Done(_) => assert!(snap.steps <= budget),
        RunExit::Trapped(t) => {
            assert_eq!(t.kind, TrapKind::OutOfFuel);
            assert_eq!(snap.steps, budget, "suffix overshot the hang bound");
        }
        other => panic!("unexpected exit: {other:?}"),
    }
}

#[test]
fn break_set_across_distinct_instructions_fires_in_execution_order() {
    let (mm, fid, idx, _) = hot_instruction(&[12], 8);
    // Second target: the function's entry instruction (executes once).
    let mut instr = Instrument::default();
    instr.stops.add(ModuleId(0), fid, 0, 1);
    instr.stops.add(ModuleId(0), fid, idx, 3);
    let mut p = Process::new(mm, vec![]);
    p.start("main", &[12]);
    assert_eq!(InterpEngine.run_instrumented(&mut p, &mut instr), RunExit::BreakHit);
    assert_eq!(
        instr.stops.take_fired(),
        Some((ModuleId(0), fid, 0, 1)),
        "entry instruction fires first"
    );
    assert_eq!(InterpEngine.run_instrumented(&mut p, &mut instr), RunExit::BreakHit);
    assert_eq!(instr.stops.take_fired(), Some((ModuleId(0), fid, idx, 3)));
    assert!(instr.stops.is_empty());
    assert!(matches!(p.run(), RunExit::Done(_)));
}

#[test]
fn break_set_rejects_an_ordinal_that_can_never_fire() {
    // Ordinals are 1-based: `nth = 0` used to register a stop no execution
    // could reach, so `is_empty()` stayed false and a cursor waiting on the
    // set walked to program exit.
    let (mm, fid, idx, _) = hot_instruction(&[12], 8);
    let mut instr = Instrument::default();
    let bs = &mut instr.stops;
    assert!(!bs.add(ModuleId(0), fid, idx, 0), "nth = 0 must not register");
    assert!(bs.is_empty());
    assert_eq!(bs.remaining(), 0);
    // Beside a real ordinal it changes nothing either.
    assert!(bs.add(ModuleId(0), fid, idx, 2));
    assert!(!bs.add(ModuleId(0), fid, idx, 0));
    assert_eq!(bs.remaining(), 1);
    let mut p = Process::new(mm, vec![]);
    p.start("main", &[12]);
    assert_eq!(InterpEngine.run_instrumented(&mut p, &mut instr), RunExit::BreakHit);
    assert_eq!(instr.stops.take_fired(), Some((ModuleId(0), fid, idx, 2)));
    assert!(instr.stops.is_empty());
}

#[test]
fn break_set_slot_table_edges() {
    // The table covers only what `add` registered: any index outside it —
    // module, function or instruction — has nothing pending, and noting it
    // neither fires nor grows the table.
    let mut bs = BreakSet::new();
    assert!(!bs.note(ModuleId(0), tinyir::FuncId(0), 0), "empty set fired");
    assert!(bs.add(ModuleId(1), tinyir::FuncId(2), 5, 2));
    assert!(bs.add(ModuleId(1), tinyir::FuncId(2), 5, 1));
    assert!(!bs.add(ModuleId(1), tinyir::FuncId(2), 5, 2), "duplicates must dedup");
    assert_eq!(bs.remaining(), 2);
    for (m, f, i) in [(9, 2, 5), (1, 9, 5), (1, 2, 9), (0, 0, 0), (1, 2, 4)] {
        assert!(!bs.note(ModuleId(m), tinyir::FuncId(f), i), "({m}, {f}, {i}) fired");
    }
    assert_eq!((bs.remaining(), bs.take_fired()), (2, None));
    // Two ordinals on one instruction fire in order, whatever the order
    // they were added in, and the third execution finds nothing pending.
    assert!(bs.note(ModuleId(1), tinyir::FuncId(2), 5));
    assert_eq!(bs.take_fired(), Some((ModuleId(1), tinyir::FuncId(2), 5, 1)));
    assert!(bs.note(ModuleId(1), tinyir::FuncId(2), 5));
    assert_eq!(bs.take_fired(), Some((ModuleId(1), tinyir::FuncId(2), 5, 2)));
    assert!(bs.is_empty());
    assert!(!bs.note(ModuleId(1), tinyir::FuncId(2), 5));
    // A serviced instruction registered again counts from the new arming.
    assert!(bs.add(ModuleId(1), tinyir::FuncId(2), 5, 1));
    assert!(bs.note(ModuleId(1), tinyir::FuncId(2), 5));
    assert_eq!(bs.take_fired(), Some((ModuleId(1), tinyir::FuncId(2), 5, 1)));
}

// ---------------------------------------------------------------------------
// Compiled execution engine: the direct-threaded backend must be
// bit-identical to the interpreter fast loop — exits, traps, fuel, steps,
// trap counts, registers, frames and memory — at every fuel budget.
// ---------------------------------------------------------------------------

use crate::engine::{CompiledEngine, EngineKind, ExecutionEngine, InterpEngine};
use crate::translate::Op;
use std::sync::Arc;

/// A module exercising every engine-relevant shape: each fused kind (a
/// loop's compare+branch and register rotation, a global base feeding a
/// load and an `f64` add), float arithmetic, intrinsics, calls, an
/// argument-controlled modulus (`srem` can raise SIGFPE) and an
/// argument-controlled array index (can run out of bounds).
fn engine_fixture() -> Arc<MachineModule> {
    let mut mb = ModuleBuilder::new("engine_fixture", "m.c");
    let g = mb.global_zeroed("arr", Ty::F64, 64);
    let out = mb.global_zeroed("out", Ty::I64, 8);
    let sq = mb.declare("sq", vec![Ty::I64], Some(Ty::I64));
    mb.define("sq", vec![Ty::I64], Some(Ty::I64), |fb| {
        // A self-call no argument takes keeps `sq` out of the inliner, so
        // `main` really calls it.
        let neg = fb.icmp(ICmp::Slt, fb.arg(0), Value::i64(0));
        fb.if_then(neg, |fb| {
            let flipped = fb.sub(Value::i64(0), fb.arg(0), Ty::I64);
            let r = fb.call(sq, vec![flipped]);
            fb.ret(Some(r));
        });
        let v = fb.mul(fb.arg(0), fb.arg(0), Ty::I64);
        fb.ret(Some(v));
    });
    mb.define("main", vec![Ty::I64; 4], Some(Ty::F64), |fb| {
        let acc = fb.alloca(Ty::F64, 1);
        fb.store(Value::f64(0.0), acc);
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
            let x = fb.cast(tinyir::CastOp::SiToFp, iv, Ty::F64);
            let r = fb.sqrt(x);
            // arg(1) is the modulus: 0 traps SIGFPE mid-loop.
            let slot = fb.srem(iv, fb.arg(1), Ty::I64);
            fb.store_elem(r, fb.global(g), slot, Ty::F64);
            let v = fb.load_elem(fb.global(g), slot, Ty::F64);
            let a = fb.load(acc, Ty::F64);
            let s = fb.fadd(a, v, Ty::F64);
            fb.store(s, acc);
        });
        let q = fb.call(sq, vec![fb.arg(0)]);
        fb.store_elem(q, fb.global(out), Value::i64(0), Ty::I64);
        // arg(2) is a raw array index: huge values fault the load. The
        // load is the lhs, so it stays a `mov` after its global base (a
        // `GloLoad`) instead of folding into the `fadd`.
        let w = fb.load_elem(fb.global(g), fb.arg(2), Ty::F64);
        let a = fb.load(acc, Ty::F64);
        let s = fb.fadd(w, a, Ty::F64);
        // arg(3) is the same for a folded rhs after its global base: a
        // `GloFBin`.
        let u = fb.load_elem(fb.global(g), fb.arg(3), Ty::F64);
        let s = fb.fadd(s, u, Ty::F64);
        fb.ret(Some(s));
    });
    let mut m = mb.finish();
    opt::optimize(&mut m, opt::OptLevel::O1);
    Arc::new(compile_module(&m, true, &[]))
}

/// Everything observable about a frame stack.
#[allow(clippy::type_complexity)]
fn frame_states(p: &Process) -> Vec<(u32, u32, usize, [u64; isa::NUM_REGS], u64, u64)> {
    p.frames.iter().map(|f| (f.module.0, f.func.0, f.idx, f.regs, f.fp, f.saved_sp)).collect()
}

/// Run the fixture's `main` under both engines from identical start states
/// and require identical machine states afterwards. Returns the shared exit.
fn engine_parity(mm: &Arc<MachineModule>, args: &[u64], fuel: u64) -> RunExit {
    let mut pi = Process::new(Arc::clone(mm), vec![]);
    pi.start("main", args);
    pi.fuel = fuel;
    let mut pc = pi.clone();
    let ei = InterpEngine.run(&mut pi);
    let engine = CompiledEngine::for_image(&pc.image);
    let ec = engine.run(&mut pc);
    assert_eq!(ei, ec, "exit diverged (args {args:?}, fuel {fuel})");
    assert_eq!(pi.steps, pc.steps, "steps diverged (args {args:?}, fuel {fuel})");
    assert_eq!(pi.fuel, pc.fuel, "fuel diverged (args {args:?}, fuel {fuel})");
    assert_eq!(pi.trap_count, pc.trap_count, "trap_count diverged");
    assert_eq!(pi.sp, pc.sp, "sp diverged");
    assert_eq!(frame_states(&pi), frame_states(&pc), "frames diverged (fuel {fuel})");
    assert_eq!(
        pi.snapshot_global("arr", 512),
        pc.snapshot_global("arr", 512),
        "memory diverged (args {args:?}, fuel {fuel})"
    );
    ei
}

#[test]
fn compiled_engine_matches_interpreter_end_to_end() {
    let mm = engine_fixture();
    assert!(matches!(engine_parity(&mm, &[40, 64, 0], u64::MAX), RunExit::Done(Some(_))));
}

#[test]
fn compiled_engine_trap_parity() {
    let mm = engine_fixture();
    // SIGSEGV on the second half of a fused pair, which freezes mid-pair
    // with the base register written: the wild `arg(2)` index faults a
    // `GloLoad`'s load, the wild `arg(3)` index a `GloFBin`'s folded
    // operand. At every budget, so a budget that runs out on that half
    // traps out of fuel first, as on the interpreter.
    let main = mm.func_by_name("main").unwrap();
    let ops = &crate::translate::translate_module(&mm).funcs[main.0 as usize].ops;
    for (args, is_pair) in [
        ([8, 64, 1 << 40, 0], (|op| matches!(op, Op::GloLoad { .. })) as fn(&Op) -> bool),
        ([8, 64, 0, 1 << 40], |op| matches!(op, Op::GloFBin { .. })),
    ] {
        let exit = engine_parity(&mm, &args, u64::MAX);
        assert!(matches!(exit, RunExit::Trapped(Trap { kind: TrapKind::Segv(_), .. })), "{exit:?}");
        let mut p = Process::new(Arc::clone(&mm), vec![]);
        p.start("main", &args);
        p.run();
        let pair = &ops[p.frame().idx - 1];
        assert!(is_pair(pair), "test premise: the fault is on a pair's second half: {pair:?}");
        for fuel in 0..p.steps {
            engine_parity(&mm, &args, fuel);
        }
    }
    // SIGFPE: remainder by zero.
    match engine_parity(&mm, &[8, 0, 0], u64::MAX) {
        RunExit::Trapped(t) => assert_eq!(t.kind, TrapKind::Fpe),
        other => panic!("expected fpe, got {other:?}"),
    }
}

#[test]
fn compiled_engine_fuel_parity_at_every_budget() {
    // Exhaustive sweep over every possible fuel budget, including the
    // mid-fused-pair stops: each must freeze on the exact instruction, with
    // the exact registers, the interpreter freezes on.
    let mm = engine_fixture();
    let mut full = Process::new(Arc::clone(&mm), vec![]);
    full.start("main", &[12, 64, 0]);
    assert!(matches!(full.run(), RunExit::Done(_)));
    let total = full.steps;
    for budget in 0..=total + 1 {
        let exit = engine_parity(&mm, &[12, 64, 0], budget);
        if budget <= total.saturating_sub(1) {
            assert!(
                matches!(exit, RunExit::Trapped(Trap { kind: TrapKind::OutOfFuel, .. })),
                "budget {budget} of {total} should out-of-fuel, got {exit:?}"
            );
        } else {
            assert!(matches!(exit, RunExit::Done(_)));
        }
    }
}

#[test]
fn translation_fuses() {
    let mm = engine_fixture();
    let p = Process::new(Arc::clone(&mm), vec![]);
    let stats = CompiledEngine::for_image(&p.image).stats();
    assert!(stats.ops > 0);
    assert!(stats.blocks > 0, "no basic blocks discovered");
    // Every fused kind forms on the fixture, so the parity sweeps below run
    // each of them.
    assert!(stats.fused_cmp_br > 0, "loop compare+branch did not fuse: {stats:?}");
    assert!(stats.fused_glo_load > 0, "global base+load did not fuse: {stats:?}");
    assert!(stats.fused_mov_mov > 0, "register copies did not fuse: {stats:?}");
    assert_eq!(
        stats.fused_total(),
        stats.fused_cmp_br + stats.fused_glo_load + stats.fused_mov_mov
    );
}

#[test]
fn fused_register_copies_chain_through_the_first_destination() {
    // `mov r2, r1; mov r3, r2` fuses into a `MovRR` whose second copy reads
    // what the first wrote. Codegen's phi copies never chain that way, so the
    // function is written by hand.
    let r = isa::Reg;
    let mov = |dst, src| MInst::Mov { dst: r(dst), src: Src::Reg(r(src)), size: 8, sext: false };
    let instrs = vec![
        MInst::GetArg { dst: r(1), idx: 0 },
        mov(2, 1),
        mov(3, 2),
        MInst::Ret { src: Some(r(3)) },
    ];
    let n = instrs.len();
    let main = MachineFunction {
        name: "main".into(),
        instrs,
        locs: vec![None; n],
        frame_size: 0,
        code_offset: 0,
        is_decl: false,
    };
    let mm = Arc::new(MachineModule {
        name: "chain".into(),
        funcs: vec![main],
        debug: DebugData::default(),
        ir: Module::new("chain"),
        code_size: n as u64 * isa::INST_BYTES,
    });
    let ops = &crate::translate::translate_module(&mm).funcs[0].ops;
    assert!(matches!(ops[1], Op::MovRR { d1: 2, s2: 2, .. }), "test premise: {:?}", ops[1]);
    for fuel in 0..=n as u64 {
        engine_parity(&mm, &[41], fuel);
    }
    assert_eq!(engine_parity(&mm, &[41], u64::MAX), RunExit::Done(Some(41)));
}

/// What one call of an instrumented run returned and left: exit, `steps`,
/// `fuel`, `trap_count`, frames, and the point that fired.
type Leg = (
    RunExit,
    u64,
    u64,
    u64,
    Vec<(u32, u32, usize, [u64; isa::NUM_REGS], u64, u64)>,
    Option<(ModuleId, tinyir::FuncId, usize, u64)>,
);

/// Run `base` on `fuel` handed one profiling [`Instrument`] with `stops` in
/// `main`/`sq`, re-running after every stop until the run ends. Returns
/// every leg, the profile, and the `arr` global at the end.
fn instrumented_legs(
    engine: &dyn ExecutionEngine,
    base: &Process,
    fuel: u64,
    stops: &[(tinyir::FuncId, usize, u64)],
) -> (Vec<Leg>, Option<Profile>, Option<Vec<u8>>) {
    let mut p = base.clone();
    p.fuel = fuel;
    let mut instr = Instrument::profiling(&p.image);
    for &(func, inst, nth) in stops {
        assert!(instr.stops.add(ModuleId(0), func, inst, nth), "test premise: {stops:?}");
    }
    let mut legs = Vec::new();
    loop {
        let exit = engine.run_instrumented(&mut p, &mut instr);
        let fired = instr.stops.take_fired();
        legs.push((exit, p.steps, p.fuel, p.trap_count, frame_states(&p), fired));
        if exit != RunExit::BreakHit {
            break;
        }
    }
    (legs, instr.profile, p.snapshot_global("arr", 512))
}

#[test]
fn compiled_instrumented_runs_match_the_stepping_reference_at_every_budget() {
    // The compiled engine's own instrumented run counts and stops exactly
    // like the fast loop stepped one instruction at a time (`InterpEngine`'s
    // instrumented run), leg by leg, at every fuel budget: on both
    // instructions of a pair of each fused kind, on many points in one
    // function, on a call, an intrinsic and returns (which stop after the
    // frame push, the intrinsic's result and the frame pop), and on a
    // trapping instruction (the trap wins).
    let mm = engine_fixture();
    let (main, sq) = (mm.func_by_name("main").unwrap(), mm.func_by_name("sq").unwrap());
    let ops = &crate::translate::translate_module(&mm).funcs[main.0 as usize].ops;
    let instrs = &mm.funcs[main.0 as usize].instrs;
    for args in [[12, 64, 0], [8, 0, 0]] {
        let mut base = Process::new(Arc::clone(&mm), vec![]);
        base.start("main", &args);
        let (legs, profile, _) = instrumented_legs(&InterpEngine, &base, u64::MAX, &[]);
        let (total, profile) = (legs[0].1, profile.unwrap());
        let counts = &profile[0][main.0 as usize];
        let ran = |i: usize| counts[i] > 0;
        let fused: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].cost() == 2 && ran(i)).collect();
        let first =
            |want: fn(&MInst) -> bool| (0..instrs.len()).find(|&i| want(&instrs[i]) && ran(i));
        let sq_ret = (mm.funcs[sq.0 as usize].instrs.iter().enumerate())
            .find(|&(i, m)| matches!(m, MInst::Ret { .. }) && profile[0][sq.0 as usize][i] > 0);
        let mut sets: Vec<Vec<(tinyir::FuncId, usize, u64)>> = Vec::new();
        // Both halves of the first executed pair of each fused kind: each
        // alone on its last execution, then both on their first with the
        // first half again on its last.
        let mut kinds = Vec::new();
        for &pair in &fused {
            let kind = std::mem::discriminant(&ops[pair]);
            if kinds.contains(&kind) {
                continue;
            }
            kinds.push(kind);
            let (n1, n2) = (counts[pair], counts[pair + 1]);
            sets.push(vec![(main, pair, n1)]);
            sets.push(vec![(main, pair + 1, n2)]);
            let mut both = vec![(main, pair, 1), (main, pair, n1), (main, pair + 1, 1)];
            both.dedup();
            sets.push(both);
        }
        sets.push(fused.iter().flat_map(|&i| [(main, i, counts[i]), (main, i + 1, 1)]).collect());
        let calls = [
            first(|m| matches!(m, MInst::Call { .. })).map(|i| (main, i, 1)),
            first(|m| matches!(m, MInst::CallIntr { .. })).map(|i| (main, i, 2)),
            first(|m| matches!(m, MInst::Ret { .. })).map(|i| (main, i, 1)),
            sq_ret.map(|(i, _)| (sq, i, 1)),
        ];
        sets.push(calls.into_iter().flatten().collect());
        // A stop on the execution that traps is consumed, and the trap wins.
        if args[1] == 0 {
            assert!(matches!(legs[0].0, RunExit::Trapped(_)), "test premise: {args:?} traps");
            let &(_, func, idx, ..) = legs[0].4.last().expect("a frozen frame");
            let nth = profile[0][func as usize][idx];
            sets.push(vec![(tinyir::FuncId(func), idx, nth)]);
        }
        if args[1] == 64 {
            assert!(
                kinds.len() == 4 && sets.len() == 14,
                "test premise: each kind runs: {fused:?}"
            );
            assert_eq!(sets[13].len(), 4, "test premise: a call, an intrinsic, two returns");
        }
        let compiled = CompiledEngine::for_image(&base.image);
        for stops in &sets {
            if args[1] == 64 {
                let (legs, ..) = instrumented_legs(&InterpEngine, &base, u64::MAX, stops);
                let fired = legs.iter().filter(|leg| leg.5.is_some()).count();
                assert_eq!(fired, stops.len(), "test premise: every stop of {stops:?} fires");
            }
            for fuel in 0..=total + 1 {
                let reference = instrumented_legs(&InterpEngine, &base, fuel, stops);
                let translated = instrumented_legs(&compiled, &base, fuel, stops);
                assert_eq!(translated, reference, "args {args:?}, fuel {fuel}, stops {stops:?}");
            }
        }
    }
}

#[test]
fn engine_kind_parses_stable_names() {
    assert_eq!("interp".parse::<EngineKind>().unwrap(), EngineKind::Interp);
    assert_eq!("compiled".parse::<EngineKind>().unwrap(), EngineKind::Compiled);
    assert!("jit".parse::<EngineKind>().is_err());
    assert_eq!(EngineKind::default(), EngineKind::Interp);
    assert_eq!(EngineKind::Compiled.name(), "compiled");
    assert_eq!(InterpEngine.name(), "interp");
}

#[test]
fn advance_to_step_is_indistinguishable_from_a_continuous_run() {
    // Replaying to a mid-run step and continuing must reproduce the
    // continuous run's exact state — steps, fuel, trap_count, frames and
    // memory — on both engines; that is the contract the trellis cursors
    // rest on.
    let mm = engine_fixture();
    let mut full = Process::new(Arc::clone(&mm), vec![]);
    full.start("main", &[12, 64, 0]);
    full.fuel = 1 << 20;
    let full_exit = full.run();
    assert!(matches!(full_exit, RunExit::Done(_)));
    let total = full.steps;
    let interp: &dyn ExecutionEngine = &InterpEngine;
    let base = {
        let mut p = Process::new(Arc::clone(&mm), vec![]);
        p.start("main", &[12, 64, 0]);
        p.fuel = 1 << 20;
        p
    };
    let compiled = CompiledEngine::for_image(&base.image);
    for engine in [interp, &compiled as &dyn ExecutionEngine] {
        for target in [0, 1, total / 3, total / 2, total - 1] {
            let mut p = base.clone();
            assert!(advance_to_step(engine, &mut p, target), "pause at {target} failed");
            assert_eq!(p.steps, target);
            assert_eq!(p.fuel, (1 << 20) - target, "fuel must charge exactly the replay");
            assert_eq!(p.trap_count, 0, "the internal pause must not count as a trap");
            let exit = engine.run(&mut p);
            assert_eq!(exit, full_exit, "{} diverged after pause at {target}", engine.name());
            assert_eq!(p.steps, total);
            assert_eq!(p.fuel, full.fuel);
            assert_eq!(frame_states(&p), frame_states(&full));
            assert_eq!(p.snapshot_global("arr", 512), full.snapshot_global("arr", 512));
        }
    }
    // A pause is only possible strictly inside the run: at `total` the
    // program completes as the replay fuel runs out, and past-the-end
    // targets can never be reached.
    let mut p = base.clone();
    assert!(!advance_to_step(interp, &mut p, total));
    let mut p = base.clone();
    assert!(matches!(p.run(), RunExit::Done(_)));
    assert!(!advance_to_step(interp, &mut p, total + 10));
    let mut p = base.clone();
    p.fuel = 5;
    assert!(!advance_to_step(interp, &mut p, total / 2));
    // One more input: a *profiled* run paused every 1 024 steps through the
    // primitive, one instrument handed along, ends exactly like one
    // uninterrupted profiled run — the property the campaign's golden-run
    // driver rests on.
    let long = {
        let mut p = Process::new(Arc::clone(&mm), vec![]);
        p.start("main", &[2000, 64, 0]);
        p.fuel = 1 << 20;
        p
    };
    let mut whole = long.clone();
    let mut whole_instr = Instrument::profiling(&whole.image);
    let whole_exit = InterpEngine.run_instrumented(&mut whole, &mut whole_instr);
    assert!(matches!(whole_exit, RunExit::Done(_)) && whole.steps > 4 * 1024);
    for engine in [interp, &compiled as &dyn ExecutionEngine] {
        let mut p = long.clone();
        let mut instr = Instrument::profiling(&p.image);
        let mut pauses = 0;
        let exit = loop {
            let target = p.steps + 1024;
            match run_to_step(engine, &mut p, target, Some(&mut instr)) {
                None => {
                    assert_eq!(p.steps, target);
                    pauses += 1;
                }
                Some(exit) => break exit,
            }
        };
        assert_eq!(exit, whole_exit, "{}: sliced profiled run diverged", engine.name());
        assert!(pauses >= 4, "only {pauses} pauses");
        assert_eq!(instr.profile, whole_instr.profile);
        assert_eq!((p.steps, p.fuel, p.trap_count), (whole.steps, whole.fuel, whole.trap_count));
    }
}

#[test]
fn same_state_is_equality_of_everything_a_run_depends_on() {
    let mm = engine_fixture();
    let base = {
        let mut p = Process::new(Arc::clone(&mm), vec![]);
        p.start("main", &[12, 64, 0]);
        p.fuel = 1 << 20;
        p
    };
    // Mid-loop: `arr` and the stack page have been written by then.
    let mid = {
        let mut p = base.clone();
        assert!(matches!(p.run(), RunExit::Done(_)));
        p.steps / 2
    };
    let compiled = CompiledEngine::for_image(&base.image);
    let paused = |engine: &dyn ExecutionEngine| {
        let mut p = base.clone();
        assert!(advance_to_step(engine, &mut p, mid));
        p
    };
    let a = paused(&InterpEngine);
    // A clone is equal, and so is the same step reached on the other engine
    // — every page either run wrote is equal bytes in its own allocation.
    assert!(a.same_state(&a.clone()));
    let b = paused(&compiled);
    assert!(a.mem.private_pages() > 0 && b.mem.private_pages() > 0);
    assert!(a.same_state(&b) && b.same_state(&a));
    // Fuel, access counters and TLB contents are outside the comparison,
    // and so are the two counters that are not machine state: a run some
    // steps and some delivered traps ahead at the same state ends the same.
    let mut spent = b.clone();
    spent.fuel = 0;
    spent.read_global("arr", 0, Ty::F64).expect("mapped");
    assert_ne!(spent.mem.stats, a.mem.stats);
    spent.steps += 2;
    spent.trap_count += 2;
    assert!(a.same_state(&spent) && spent.same_state(&a));

    let differs = |what: &str, change: &dyn Fn(&mut Process)| {
        let mut c = b.clone();
        change(&mut c);
        assert!(!a.same_state(&c) && !c.same_state(&a), "{what} went unnoticed");
    };
    differs("a flipped byte in a private page", &|p| {
        let addr = p.image.global_addr_by_name("arr").expect("arr");
        let byte = p.mem.load(addr + 8, 1).expect("mapped");
        p.mem.store(addr + 8, 1, byte ^ 1).expect("mapped");
    });
    differs("a register", &|p| p.frame_mut().regs[3] ^= 1 << 40);
    differs("idx", &|p| p.frame_mut().idx += 1);
    differs("sp", &|p| p.sp -= 16);
    differs("heap_ptr", &|p| p.heap_ptr += 16);
    differs("a popped frame", &|p| drop(p.frames.pop()));
    differs("a pushed frame", &|p| {
        let top = p.frame().clone();
        p.frames.push(top);
    });
    // Equal bytes under a process image of its own: a different program, as
    // far as a cheap check can tell.
    let mut other = Process::new(Arc::clone(&mm), vec![]);
    other.start("main", &[12, 64, 0]);
    other.fuel = 1 << 20;
    assert!(advance_to_step(&InterpEngine, &mut other, mid));
    assert!(!a.same_state(&other));
}

/// What one executor made of `main() { r = which(args…); ret r }`: the result
/// bits or the trap, the heap pointer, the steps taken, and which of the
/// first four heap pages are mapped.
#[derive(PartialEq, Debug)]
struct IntrinsicRun {
    ret: Result<Option<u64>, String>,
    heap_ptr: u64,
    steps: u64,
    pages: Vec<bool>,
}

fn heap_pages(mem: &mut PagedMemory) -> Vec<bool> {
    let page = |k: u64| image::HEAP_BASE + k * tinyir::mem::PAGE_SIZE;
    (0..4).map(|k| mem.load(page(k), 1).is_ok()).collect()
}

#[test]
fn every_intrinsic_gives_one_answer_on_three_executors() {
    use Intrinsic::*;
    // Off the 16-byte grid, so `Malloc` has to align.
    let heap_start = image::HEAP_BASE + 8;
    let page = tinyir::mem::PAGE_SIZE;
    let floats = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 2.5, -1.5];
    let floats: Vec<u64> = floats.iter().map(|x| x.to_bits()).collect();
    let ints: Vec<u64> = [i64::MIN, -1, 0, 1, i64::MAX].iter().map(|&x| x as u64).collect();
    let singles = |v: &[u64]| v.iter().map(|&a| vec![a]).collect::<Vec<_>>();
    let pairs =
        |v: &[u64]| v.iter().flat_map(|&a| v.iter().map(move |&b| vec![a, b])).collect::<Vec<_>>();
    let all = [
        Sqrt, Fabs, Sin, Cos, Exp, Floor, Pow, IMin, IMax, FMin, FMax, Assert, Abort, Malloc, Free,
    ];
    for which in all {
        // Exhaustive: a new variant does not compile until it has inputs
        // here (list it above too).
        let (ty, inputs) = match which {
            Sqrt | Fabs | Sin | Cos | Exp | Floor => (Ty::F64, singles(&floats)),
            Pow | FMin | FMax => (Ty::F64, pairs(&floats)),
            IMin | IMax => (Ty::I64, pairs(&ints)),
            Assert => (Ty::I1, vec![vec![0], vec![1]]),
            Abort => (Ty::I64, vec![vec![]]),
            Malloc => (Ty::I64, vec![vec![0], vec![1], vec![4097]]),
            Free => (Ty::Ptr, vec![vec![0], vec![heap_start]]),
        };
        for (args, params) in inputs.iter().flat_map(|a| [(a, false), (a, true)]) {
            let case = format!("{which:?}{args:x?}{}", [" as constants", ""][params as usize]);
            let mut mb = ModuleBuilder::new("intrinsic", "m.c");
            // As `main`'s parameters the call reads its arguments from
            // registers (-O1) or frame slots (-O0); as constants, immediates.
            let n = if params { args.len() } else { 0 };
            mb.define("main", vec![ty; n], which.ret_ty(), |fb| {
                let arg = |i: usize| match ty {
                    _ if params => fb.arg(i as u32),
                    Ty::F64 => Value::f64(f64::from_bits(args[i])),
                    _ => Value::ConstInt(args[i] as i64, ty),
                };
                let r = fb.intrinsic(which, (0..args.len()).map(arg).collect());
                // Round-trip the block's address through its element 7 (the
                // 0- and 1-byte blocks' page is mapped whole).
                let r = if which != Malloc {
                    r
                } else {
                    fb.store_elem(r, r, Value::i64(7), Ty::I64);
                    fb.load_elem(r, Value::i64(7), Ty::I64)
                };
                fb.ret(which.ret_ty().map(|_| r));
            });
            let m = mb.finish();

            let mut mem = PagedMemory::new();
            let (stack, stack_limit) = (0x7f00_0000_0000, 0x7f00_0100_0000);
            let mut it = Interp::new(&m, &mut mem, &[], stack, stack_limit, heap_start, 100);
            let ret = it.call(tinyir::FuncId(0), &args[..n]).map_err(|f| format!("{:?}", f.kind));
            let (heap_ptr, steps) = (it.heap_ptr, it.steps);
            let ir = IntrinsicRun { ret, heap_ptr, steps, pages: heap_pages(&mut mem) };
            let aborts = which == Abort || (which == Assert && args[0] == 0);
            if aborts {
                assert_eq!(ir.ret, Err("Abort".to_string()), "{case}: SIGABRT");
                assert_eq!(ir.steps, 1, "{case}: the trap freezes on the call");
            } else {
                assert!(ir.ret.is_ok(), "{case}: {:?}", ir.ret);
                let steps = if which == Malloc { 6 } else { 2 };
                assert_eq!(ir.steps, steps, "{case}: call, ret, malloc's two geps and store/load");
            }
            if which == Malloc {
                let addr = ir.ret.clone().unwrap().expect("malloc returns");
                let size = args[0].max(1);
                assert_eq!(addr, heap_start.next_multiple_of(16), "{case}: 16-byte aligned");
                assert_eq!(ir.heap_ptr, addr + size + page, "{case}");
                // The block's pages are mapped, the page after it is not.
                let last = ((addr + size - 1 - image::HEAP_BASE) / page) as usize;
                assert!(ir.pages[..=last].iter().all(|&m| m), "{case}: {:?}", ir.pages);
                assert!(!ir.pages[last + 1], "{case}: guard page mapped");
            } else {
                assert_eq!(ir.heap_ptr, heap_start, "{case}: only malloc moves the heap");
                assert_eq!(ir.pages, [false; 4], "{case}");
            }

            for regalloc in [false, true] {
                let case = format!("{case} at -O{}", regalloc as u8);
                let mut template = Process::new(compile_module(&m, regalloc, &[]), vec![]);
                template.start("main", &args[..n]);
                template.heap_ptr = heap_start;
                let compiled = CompiledEngine::for_image(&template.image);
                let machine = |engine: &dyn ExecutionEngine| {
                    let mut p = template.clone();
                    let exit = engine.run(&mut p);
                    let ret = match exit {
                        RunExit::Done(v) => Ok(v),
                        RunExit::Trapped(t) => Err(format!("{:?}", t.kind)),
                        RunExit::BreakHit => unreachable!("nothing armed"),
                    };
                    let pages = heap_pages(&mut p.mem);
                    let run = IntrinsicRun { ret, heap_ptr: p.heap_ptr, steps: p.steps, pages };
                    (run, exit, frame_states(&p))
                };
                let (interp, exit, frames) = machine(&InterpEngine);
                let comp = machine(&compiled);
                assert_eq!((&interp, exit, frames), (&comp.0, comp.1, comp.2), "{case}: engines");
                // `Interp` counts IR instructions: -O1 lowers a constant-
                // argument call and ret to one machine instruction each, while
                // -O0 adds spills, parameters add moves and geps fold away.
                let same = regalloc && !params && which != Malloc;
                let steps = if same { interp.steps } else { ir.steps };
                assert_eq!(IntrinsicRun { steps, ..interp }, ir, "{case}: engines vs Interp");
            }
        }
    }
}
