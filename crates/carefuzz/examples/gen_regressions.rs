//! One-off generator for the minimized reproducers under tests/regressions/.
//! Each module is the shrunk form of a divergence the fuzzer found (plus the
//! f32 print bug found by the round-trip property); all must replay clean.

use tinyir::builder::ModuleBuilder;
use tinyir::{BinOp, CastOp, ICmp, Ty, Value};

fn save(name: &str, m: &tinyir::Module) {
    tinyir::verify::verify_module(m).expect(name);
    if let Some(d) = carefuzz::oracle::check_module(m, 0xC0FFEE, &mut Default::default()) {
        panic!("{name} still diverges: {d}");
    }
    let path = format!("tests/regressions/{name}.tir");
    std::fs::write(&path, tinyir::display::print_module(m)).unwrap();
    println!("wrote {path}");
}

fn main() {
    // 1. f32 constants used to print as 16-hex f64 carrier bits; the parser
    //    then reparsed the low 32 bits as the f32 pattern, corrupting every
    //    f32 literal that is inexact in f64's low word (e.g. 0.1, 1e300
    //    saturates). Found by the print→parse→print fixpoint oracle.
    let mut mb = ModuleBuilder::new("fuzz", "fuzz.c");
    let g = mb.global_zeroed("g0", Ty::F32, 8);
    mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
        let base = fb.global(g);
        fb.store_elem(Value::ConstFloat(0.1, Ty::F32), base, Value::i64(0), Ty::F32);
        fb.store_elem(Value::ConstFloat(1e300, Ty::F32), base, Value::i64(1), Ty::F32);
        let v = fb.load_elem(base, Value::i64(0), Ty::F32);
        let w = fb.cast(CastOp::FpExt, v, Ty::F64);
        let lo = fb.intrinsic(tinyir::Intrinsic::FMax, vec![w, Value::f64(-1e15)]);
        let cl = fb.intrinsic(tinyir::Intrinsic::FMin, vec![lo, Value::f64(1e15)]);
        let i = fb.cast(CastOp::FpToSi, cl, Ty::I64);
        let r = fb.add(i, fb.arg(0), Ty::I64);
        fb.ret(Some(r));
    });
    save("f32_const_roundtrip", &mb.finish());

    // 2. A diamond-join phi whose only use is the access's address slice is
    //    dead at the access, yet Armor accepted it as a kernel parameter
    //    (phis were presumed fetchable). Found by the liveness oracle.
    let mut mb = ModuleBuilder::new("fuzz", "fuzz.c");
    let g = mb.global_zeroed("g0", Ty::I64, 64);
    mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
        let cond = fb.icmp(ICmp::Slt, fb.arg(0), Value::i64(1));
        let then_bb = fb.new_block("then");
        let else_bb = fb.new_block("else");
        let join = fb.new_block("join");
        fb.cond_br(cond, then_bb, else_bb);
        fb.switch_to(then_bb);
        fb.br(join);
        fb.switch_to(else_bb);
        fb.br(join);
        fb.switch_to(join);
        let p = fb.phi(vec![(then_bb, Value::i64(3)), (else_bb, fb.arg(0))], Ty::I64);
        let scaled = fb.mul(p, Value::i64(5), Ty::I64);
        let idx = fb.bin(BinOp::And, scaled, Value::i64(63), Ty::I64);
        let v = fb.load_elem(fb.global(g), idx, Ty::I64);
        fb.ret(Some(v));
    });
    save("dead_phi_kernel_param", &mb.finish());

    // 3. A load cloned into a kernel is re-executed at recovery time; when a
    //    later store clobbers the loaded location (here around the loop
    //    backedge), the kernel recomputes a different address than the
    //    original access used. Found by the kernel-probe oracle.
    let mut mb = ModuleBuilder::new("fuzz", "fuzz.c");
    let g = mb.global_zeroed("g0", Ty::I64, 128);
    mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
        let acc = fb.alloca(Ty::I64, 1);
        fb.store(fb.arg(0), acc);
        let seed = fb.load_elem(fb.global(g), Value::i64(1), Ty::I64);
        fb.for_loop(Value::i64(0), Value::i64(2), |fb, _iv| {
            let cur = fb.load(acc, Ty::I64);
            let mixed = fb.add(cur, seed, Ty::I64);
            let idx = fb.bin(BinOp::And, mixed, Value::i64(127), Ty::I64);
            let v = fb.load_elem(fb.global(g), idx, Ty::I64);
            fb.store_elem(v, fb.global(g), Value::i64(1), Ty::I64);
            let upd = fb.add(cur, v, Ty::I64);
            fb.store(upd, acc);
        });
        let r = fb.load(acc, Ty::I64);
        fb.ret(Some(r));
    });
    save("clobbered_load_in_kernel", &mb.finish());
}
