//! REAL level-1 BLAS as a simulated shared library, plus an `sblat1`-style
//! driver — the paper's §5.5 experiment.
//!
//! The routines mirror the reference Fortran BLAS (from LAPACK 3.8.0)
//! semantics including increment arguments, whose `i·incx` indexing is
//! address arithmetic CARE can protect. The library is compiled as its own
//! [`tinyir::Module`] and loaded at a shared-library base, so recoveries in
//! it exercise Safeguard's `PC − base` keying path.

use crate::spec::{init_f32, Workload};
use tinyir::builder::{FuncBuilder, ModuleBuilder};
use tinyir::{CastOp, FCmp, GlobalInit, ICmp, Intrinsic, Module, Ty, Value};

/// The BLAS experiment bundle: library module + driver workload.
#[derive(Clone, Debug)]
pub struct BlasSetup {
    /// `libblas.so` source.
    pub lib: Module,
    /// The `sblat1` driver (declares and calls the library routines).
    pub driver: Workload,
}

/// f32 |v| helper (fpext → fabs → fptrunc).
fn fabs32(fb: &mut FuncBuilder<'_>, v: Value) -> Value {
    let d = fb.cast(CastOp::FpExt, v, Ty::F64);
    let a = fb.intrinsic(Intrinsic::Fabs, vec![d]);
    fb.cast(CastOp::FpTrunc, a, Ty::F32)
}

/// Build the BLAS library module.
pub fn build_lib() -> Module {
    let mut mb = ModuleBuilder::new("libblas", "blas.f");

    // sdot(n, x, incx, y, incy) -> Σ x[i·incx]·y[i·incy]
    mb.define("sdot", vec![Ty::I64, Ty::Ptr, Ty::I64, Ty::Ptr, Ty::I64], Some(Ty::F32), |fb| {
        let acc = fb.alloca(Ty::F32, 1);
        fb.store(Value::f32(0.0), acc);
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, i| {
            let ix = fb.mul(i, fb.arg(2), Ty::I64);
            let iy = fb.mul(i, fb.arg(4), Ty::I64);
            let xv = fb.load_elem(fb.arg(1), ix, Ty::F32);
            let yv = fb.load_elem(fb.arg(3), iy, Ty::F32);
            let p = fb.fmul(xv, yv, Ty::F32);
            let a = fb.load(acc, Ty::F32);
            let s = fb.fadd(a, p, Ty::F32);
            fb.store(s, acc);
        });
        let r = fb.load(acc, Ty::F32);
        fb.ret(Some(r));
    });

    // saxpy(n, a, x, incx, y, incy): y += a·x
    mb.define("saxpy", vec![Ty::I64, Ty::F32, Ty::Ptr, Ty::I64, Ty::Ptr, Ty::I64], None, |fb| {
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, i| {
            let ix = fb.mul(i, fb.arg(3), Ty::I64);
            let iy = fb.mul(i, fb.arg(5), Ty::I64);
            let xv = fb.load_elem(fb.arg(2), ix, Ty::F32);
            let ax = fb.fmul(fb.arg(1), xv, Ty::F32);
            let yv = fb.load_elem(fb.arg(4), iy, Ty::F32);
            let s = fb.fadd(yv, ax, Ty::F32);
            fb.store_elem(s, fb.arg(4), iy, Ty::F32);
        });
        fb.ret(None);
    });

    // sscal(n, a, x, incx): x *= a
    mb.define("sscal", vec![Ty::I64, Ty::F32, Ty::Ptr, Ty::I64], None, |fb| {
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, i| {
            let ix = fb.mul(i, fb.arg(3), Ty::I64);
            let xv = fb.load_elem(fb.arg(2), ix, Ty::F32);
            let s = fb.fmul(xv, fb.arg(1), Ty::F32);
            fb.store_elem(s, fb.arg(2), ix, Ty::F32);
        });
        fb.ret(None);
    });

    // scopy(n, x, incx, y, incy): y = x
    mb.define("scopy", vec![Ty::I64, Ty::Ptr, Ty::I64, Ty::Ptr, Ty::I64], None, |fb| {
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, i| {
            let ix = fb.mul(i, fb.arg(2), Ty::I64);
            let iy = fb.mul(i, fb.arg(4), Ty::I64);
            let xv = fb.load_elem(fb.arg(1), ix, Ty::F32);
            fb.store_elem(xv, fb.arg(3), iy, Ty::F32);
        });
        fb.ret(None);
    });

    // sswap(n, x, incx, y, incy)
    mb.define("sswap", vec![Ty::I64, Ty::Ptr, Ty::I64, Ty::Ptr, Ty::I64], None, |fb| {
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, i| {
            let ix = fb.mul(i, fb.arg(2), Ty::I64);
            let iy = fb.mul(i, fb.arg(4), Ty::I64);
            let xv = fb.load_elem(fb.arg(1), ix, Ty::F32);
            let yv = fb.load_elem(fb.arg(3), iy, Ty::F32);
            fb.store_elem(yv, fb.arg(1), ix, Ty::F32);
            fb.store_elem(xv, fb.arg(3), iy, Ty::F32);
        });
        fb.ret(None);
    });

    // sasum(n, x, incx) -> Σ |x|
    mb.define("sasum", vec![Ty::I64, Ty::Ptr, Ty::I64], Some(Ty::F32), |fb| {
        let acc = fb.alloca(Ty::F32, 1);
        fb.store(Value::f32(0.0), acc);
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, i| {
            let ix = fb.mul(i, fb.arg(2), Ty::I64);
            let xv = fb.load_elem(fb.arg(1), ix, Ty::F32);
            let av = fabs32(fb, xv);
            let a = fb.load(acc, Ty::F32);
            let s = fb.fadd(a, av, Ty::F32);
            fb.store(s, acc);
        });
        let r = fb.load(acc, Ty::F32);
        fb.ret(Some(r));
    });

    // snrm2(n, x, incx) -> sqrt(Σ x²) (computed in f64 like sdsdot's style)
    mb.define("snrm2", vec![Ty::I64, Ty::Ptr, Ty::I64], Some(Ty::F32), |fb| {
        let acc = fb.alloca(Ty::F64, 1);
        fb.store(Value::f64(0.0), acc);
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, i| {
            let ix = fb.mul(i, fb.arg(2), Ty::I64);
            let xv = fb.load_elem(fb.arg(1), ix, Ty::F32);
            let xd = fb.cast(CastOp::FpExt, xv, Ty::F64);
            let sq = fb.fmul(xd, xd, Ty::F64);
            let a = fb.load(acc, Ty::F64);
            let s = fb.fadd(a, sq, Ty::F64);
            fb.store(s, acc);
        });
        let sum = fb.load(acc, Ty::F64);
        let root = fb.sqrt(sum);
        let r = fb.cast(CastOp::FpTrunc, root, Ty::F32);
        fb.ret(Some(r));
    });

    // isamax(n, x, incx) -> first index of max |x| (0-based)
    mb.define("isamax", vec![Ty::I64, Ty::Ptr, Ty::I64], Some(Ty::I64), |fb| {
        let best = fb.alloca(Ty::I64, 1);
        let bestv = fb.alloca(Ty::F32, 1);
        fb.store(Value::i64(0), best);
        fb.store(Value::f32(-1.0), bestv);
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, i| {
            let ix = fb.mul(i, fb.arg(2), Ty::I64);
            let xv = fb.load_elem(fb.arg(1), ix, Ty::F32);
            let av = fabs32(fb, xv);
            let b = fb.load(bestv, Ty::F32);
            let gt = fb.fcmp(FCmp::Ogt, av, b);
            fb.if_then(gt, |fb| {
                fb.store(av, bestv);
                fb.store(i, best);
            });
        });
        let r = fb.load(best, Ty::I64);
        fb.ret(Some(r));
    });

    // srot(n, x, incx, y, incy, c, s): plane rotation.
    mb.define(
        "srot",
        vec![Ty::I64, Ty::Ptr, Ty::I64, Ty::Ptr, Ty::I64, Ty::F32, Ty::F32],
        None,
        |fb| {
            fb.for_loop(Value::i64(0), fb.arg(0), |fb, i| {
                let ix = fb.mul(i, fb.arg(2), Ty::I64);
                let iy = fb.mul(i, fb.arg(4), Ty::I64);
                let xv = fb.load_elem(fb.arg(1), ix, Ty::F32);
                let yv = fb.load_elem(fb.arg(3), iy, Ty::F32);
                let cx = fb.fmul(fb.arg(5), xv, Ty::F32);
                let sy = fb.fmul(fb.arg(6), yv, Ty::F32);
                let nx = fb.fadd(cx, sy, Ty::F32);
                let cy = fb.fmul(fb.arg(5), yv, Ty::F32);
                let sx = fb.fmul(fb.arg(6), xv, Ty::F32);
                let ny = fb.fsub(cy, sx, Ty::F32);
                fb.store_elem(nx, fb.arg(1), ix, Ty::F32);
                fb.store_elem(ny, fb.arg(3), iy, Ty::F32);
            });
            fb.ret(None);
        },
    );

    // srotg(a_ptr, b_ptr, c_ptr, s_ptr): generate a Givens rotation.
    mb.define("srotg", vec![Ty::Ptr, Ty::Ptr, Ty::Ptr, Ty::Ptr], None, |fb| {
        let a = fb.load(fb.arg(0), Ty::F32);
        let b = fb.load(fb.arg(1), Ty::F32);
        let ad = fb.cast(CastOp::FpExt, a, Ty::F64);
        let bd = fb.cast(CastOp::FpExt, b, Ty::F64);
        let a2 = fb.fmul(ad, ad, Ty::F64);
        let b2 = fb.fmul(bd, bd, Ty::F64);
        let sum = fb.fadd(a2, b2, Ty::F64);
        let rd = fb.sqrt(sum);
        let tiny = fb.fcmp(FCmp::Olt, rd, Value::f64(1e-30));
        fb.if_then_else(
            tiny,
            |fb| {
                fb.store(Value::f32(1.0), fb.arg(2));
                fb.store(Value::f32(0.0), fb.arg(3));
            },
            |fb| {
                let c = fb.fdiv(ad, rd, Ty::F64);
                let s = fb.fdiv(bd, rd, Ty::F64);
                let cf = fb.cast(CastOp::FpTrunc, c, Ty::F32);
                let sf = fb.cast(CastOp::FpTrunc, s, Ty::F32);
                fb.store(cf, fb.arg(2));
                fb.store(sf, fb.arg(3));
                let rf = fb.cast(CastOp::FpTrunc, rd, Ty::F32);
                fb.store(rf, fb.arg(0));
            },
        );
        fb.ret(None);
    });

    // sdsdot(n, sb, x, incx, y, incy) -> sb + Σ x·y accumulated in f64.
    mb.define(
        "sdsdot",
        vec![Ty::I64, Ty::F32, Ty::Ptr, Ty::I64, Ty::Ptr, Ty::I64],
        Some(Ty::F32),
        |fb| {
            let acc = fb.alloca(Ty::F64, 1);
            let sb = fb.cast(CastOp::FpExt, fb.arg(1), Ty::F64);
            fb.store(sb, acc);
            fb.for_loop(Value::i64(0), fb.arg(0), |fb, i| {
                let ix = fb.mul(i, fb.arg(3), Ty::I64);
                let iy = fb.mul(i, fb.arg(5), Ty::I64);
                let xv = fb.load_elem(fb.arg(2), ix, Ty::F32);
                let yv = fb.load_elem(fb.arg(4), iy, Ty::F32);
                let xd = fb.cast(CastOp::FpExt, xv, Ty::F64);
                let yd = fb.cast(CastOp::FpExt, yv, Ty::F64);
                let p = fb.fmul(xd, yd, Ty::F64);
                let a = fb.load(acc, Ty::F64);
                let s = fb.fadd(a, p, Ty::F64);
                fb.store(s, acc);
            });
            let sum = fb.load(acc, Ty::F64);
            let r = fb.cast(CastOp::FpTrunc, sum, Ty::F32);
            fb.ret(Some(r));
        },
    );

    mb.finish()
}

/// Build the `sblat1` driver workload (declares the library routines and
/// exercises them across sizes and increments, accumulating a checksum).
pub fn build_driver(passes: i64) -> Workload {
    let n = 64i64;
    let mut mb = ModuleBuilder::new("sblat1", "sblat1.f");
    let template: Vec<f32> = (0..2 * n).map(|i| init_f32(41, i as u64)).collect();
    let g_template = mb.global_init("template", Ty::F32, 2 * n as u32, GlobalInit::F32s(template));
    let g_sx = mb.global_zeroed("sx", Ty::F32, 2 * n as u32);
    let g_sy = mb.global_zeroed("sy", Ty::F32, 2 * n as u32);
    let g_scratch = mb.global_zeroed("scratch", Ty::F32, 4);
    let g_checksum = mb.global_zeroed("checksum", Ty::F32, 1);

    let sdot = mb.declare("sdot", vec![Ty::I64, Ty::Ptr, Ty::I64, Ty::Ptr, Ty::I64], Some(Ty::F32));
    let saxpy =
        mb.declare("saxpy", vec![Ty::I64, Ty::F32, Ty::Ptr, Ty::I64, Ty::Ptr, Ty::I64], None);
    let sscal = mb.declare("sscal", vec![Ty::I64, Ty::F32, Ty::Ptr, Ty::I64], None);
    let scopy = mb.declare("scopy", vec![Ty::I64, Ty::Ptr, Ty::I64, Ty::Ptr, Ty::I64], None);
    let sswap = mb.declare("sswap", vec![Ty::I64, Ty::Ptr, Ty::I64, Ty::Ptr, Ty::I64], None);
    let sasum = mb.declare("sasum", vec![Ty::I64, Ty::Ptr, Ty::I64], Some(Ty::F32));
    let snrm2 = mb.declare("snrm2", vec![Ty::I64, Ty::Ptr, Ty::I64], Some(Ty::F32));
    let isamax = mb.declare("isamax", vec![Ty::I64, Ty::Ptr, Ty::I64], Some(Ty::I64));
    let srot = mb.declare(
        "srot",
        vec![Ty::I64, Ty::Ptr, Ty::I64, Ty::Ptr, Ty::I64, Ty::F32, Ty::F32],
        None,
    );
    let srotg = mb.declare("srotg", vec![Ty::Ptr, Ty::Ptr, Ty::Ptr, Ty::Ptr], None);
    let sdsdot = mb.declare(
        "sdsdot",
        vec![Ty::I64, Ty::F32, Ty::Ptr, Ty::I64, Ty::Ptr, Ty::I64],
        Some(Ty::F32),
    );

    mb.define("main", vec![Ty::I64], Some(Ty::F32), |fb| {
        let nv = Value::i64(n);
        let half = Value::i64(n / 2);
        let acc = fb.alloca(Ty::F32, 1);
        fb.store(Value::f32(0.0), acc);
        let bump = |fb: &mut FuncBuilder<'_>, acc: Value, v: Value| {
            let a = fb.load(acc, Ty::F32);
            let s = fb.fadd(a, v, Ty::F32);
            fb.store(s, acc);
        };
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, _pass| {
            // Reset the working vectors from the template.
            let n2 = fb.mul(nv, Value::i64(2), Ty::I64);
            fb.call(
                scopy,
                vec![n2, fb.global(g_template), Value::i64(1), fb.global(g_sx), Value::i64(1)],
            );
            fb.call(
                scopy,
                vec![nv, fb.global(g_template), Value::i64(2), fb.global(g_sy), Value::i64(1)],
            );
            // Unit and strided increments over the level-1 set.
            for inc in [1i64, 2] {
                let count = if inc == 1 { nv } else { half };
                let incv = Value::i64(inc);
                let d = fb
                    .call(sdot, vec![count, fb.global(g_sx), incv, fb.global(g_sy), Value::i64(1)]);
                bump(fb, acc, d);
                fb.call(
                    saxpy,
                    vec![
                        count,
                        Value::f32(0.5),
                        fb.global(g_sx),
                        incv,
                        fb.global(g_sy),
                        Value::i64(1),
                    ],
                );
                let a = fb.call(sasum, vec![count, fb.global(g_sy), incv]);
                bump(fb, acc, a);
                let nrm = fb.call(snrm2, vec![count, fb.global(g_sx), incv]);
                bump(fb, acc, nrm);
                let im = fb.call(isamax, vec![count, fb.global(g_sx), incv]);
                let imf = fb.cast(CastOp::SiToFp, im, Ty::F64);
                let imf32 = fb.cast(CastOp::FpTrunc, imf, Ty::F32);
                bump(fb, acc, imf32);
                let dd = fb.call(
                    sdsdot,
                    vec![
                        count,
                        Value::f32(0.25),
                        fb.global(g_sx),
                        incv,
                        fb.global(g_sy),
                        Value::i64(1),
                    ],
                );
                bump(fb, acc, dd);
            }
            fb.call(sscal, vec![nv, Value::f32(1.01), fb.global(g_sx), Value::i64(1)]);
            fb.call(
                sswap,
                vec![half, fb.global(g_sx), Value::i64(1), fb.global(g_sy), Value::i64(2)],
            );
            // Givens rotation path.
            let s0 = fb.gep_ty(fb.global(g_scratch), Value::i64(0), Ty::F32);
            let s1 = fb.gep_ty(fb.global(g_scratch), Value::i64(1), Ty::F32);
            let s2 = fb.gep_ty(fb.global(g_scratch), Value::i64(2), Ty::F32);
            let s3 = fb.gep_ty(fb.global(g_scratch), Value::i64(3), Ty::F32);
            fb.store(Value::f32(3.0), s0);
            fb.store(Value::f32(4.0), s1);
            fb.call(srotg, vec![s0, s1, s2, s3]);
            let c = fb.load(s2, Ty::F32);
            let s = fb.load(s3, Ty::F32);
            fb.call(
                srot,
                vec![half, fb.global(g_sx), Value::i64(1), fb.global(g_sy), Value::i64(1), c, s],
            );
            let tail = fb.call(
                sdot,
                vec![half, fb.global(g_sx), Value::i64(1), fb.global(g_sy), Value::i64(1)],
            );
            bump(fb, acc, tail);
        });
        let total = fb.load(acc, Ty::F32);
        fb.store_elem(total, fb.global(g_checksum), Value::i64(0), Ty::F32);
        let _ = ICmp::Eq;
        fb.ret(Some(total));
    });

    let module = mb.finish();
    Workload::new(
        "sblat1",
        module,
        vec![passes as u64],
        vec![("sx", 2 * n as u64 * 4), ("sy", 2 * n as u64 * 4), ("checksum", 4)],
    )
}

/// The full BLAS experiment setup.
pub fn setup() -> BlasSetup {
    BlasSetup { lib: build_lib(), driver: build_driver(3) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyir::verify::verify_module;

    #[test]
    fn library_and_driver_verify() {
        let s = setup();
        verify_module(&s.lib).unwrap();
        verify_module(&s.driver.module).unwrap();
        // All 11 routines are defined in the library.
        for name in [
            "sdot", "saxpy", "sscal", "scopy", "sswap", "sasum", "snrm2", "isamax", "srot",
            "srotg", "sdsdot",
        ] {
            let fid = s.lib.func_by_name(name).unwrap();
            assert!(!s.lib.func(fid).is_decl, "{name} must be defined");
        }
    }

    #[test]
    fn sdot_matches_native() {
        // Cross-check one routine against a native Rust computation by
        // executing lib+driver on the machine (cross-module golden).
        let s = setup();
        let lib_mm = simx::compile_module(&s.lib, true, &[]);
        let drv_mm = simx::compile_module(&s.driver.module, true, &[]);
        let mut p = simx::Process::new(drv_mm, vec![lib_mm.into()]);
        p.start("main", &[1]);
        match p.run() {
            simx::RunExit::Done(Some(bits)) => {
                let total = f32::from_bits(bits as u32);
                assert!(total.is_finite());
                assert_ne!(total, 0.0);
            }
            other => panic!("{other:?}"),
        }
    }
}
