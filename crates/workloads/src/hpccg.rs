//! HPCCG — "a simple conjugate gradient benchmark code for a 3D chimney
//! domain" (Table 1 of the paper), miniaturised.
//!
//! Structure follows the Mantevo original: `generate_matrix` builds a
//! 27-point stencil in a padded-ELL sparse format, `sparsemv` performs the
//! indirect `x[cols[k]]` gather (the address-computation pattern CARE
//! protects), `ddot`/`waxpby` are the vector kernels, and `main` runs
//! un-preconditioned CG iterations.

use crate::spec::Workload;
use tinyir::builder::ModuleBuilder;
use tinyir::{CastOp, ICmp, Ty, Value};

/// Maximum nonzeros per row (27-point stencil).
const NNZ_PER_ROW: i64 = 27;

/// Build the HPCCG workload for an `nx × nx × nx` grid and `iters` CG
/// iterations.
pub fn build(nx: i64, iters: i64) -> Workload {
    let nrows = nx * nx * nx;
    let nnz = nrows * NNZ_PER_ROW;
    let mut mb = ModuleBuilder::new("hpccg", "hpccg.cpp");

    let a_vals = mb.global_zeroed("a_vals", Ty::F64, nnz as u32);
    let a_cols = mb.global_zeroed("a_cols", Ty::I64, nnz as u32);
    let a_rowlen = mb.global_zeroed("a_rowlen", Ty::I64, nrows as u32);
    let xv = mb.global_zeroed("x", Ty::F64, nrows as u32);
    let bv = mb.global_zeroed("b", Ty::F64, nrows as u32);
    let rv = mb.global_zeroed("r", Ty::F64, nrows as u32);
    let pv = mb.global_zeroed("p", Ty::F64, nrows as u32);
    let qv = mb.global_zeroed("q", Ty::F64, nrows as u32);
    let checksum = mb.global_zeroed("checksum", Ty::F64, 2);

    // ddot(n, x, y) -> Σ x[i]·y[i]
    let ddot = mb.define("ddot", vec![Ty::I64, Ty::Ptr, Ty::Ptr], Some(Ty::F64), |fb| {
        let acc = fb.alloca(Ty::F64, 1);
        fb.store(Value::f64(0.0), acc);
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, i| {
            let a = fb.load_elem(fb.arg(1), i, Ty::F64);
            let b = fb.load_elem(fb.arg(2), i, Ty::F64);
            let prod = fb.fmul(a, b, Ty::F64);
            let s0 = fb.load(acc, Ty::F64);
            let s1 = fb.fadd(s0, prod, Ty::F64);
            fb.store(s1, acc);
        });
        let r = fb.load(acc, Ty::F64);
        fb.ret(Some(r));
    });

    // waxpby(n, alpha, x, beta, y, w): w = alpha·x + beta·y
    let waxpby = mb.define(
        "waxpby",
        vec![Ty::I64, Ty::F64, Ty::Ptr, Ty::F64, Ty::Ptr, Ty::Ptr],
        None,
        |fb| {
            fb.for_loop(Value::i64(0), fb.arg(0), |fb, i| {
                let x = fb.load_elem(fb.arg(2), i, Ty::F64);
                let ax = fb.fmul(fb.arg(1), x, Ty::F64);
                let y = fb.load_elem(fb.arg(4), i, Ty::F64);
                let by = fb.fmul(fb.arg(3), y, Ty::F64);
                let w = fb.fadd(ax, by, Ty::F64);
                fb.store_elem(w, fb.arg(5), i, Ty::F64);
            });
            fb.ret(None);
        },
    );

    // sparsemv(n, y, x): y = A·x over the padded-ELL arrays.
    let sparsemv = mb.define("sparsemv", vec![Ty::I64, Ty::Ptr, Ty::Ptr], None, |fb| {
        let (vals, cols, rowlen) = (fb.global(a_vals), fb.global(a_cols), fb.global(a_rowlen));
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, row| {
            let sum = fb.alloca(Ty::F64, 1);
            fb.store(Value::f64(0.0), sum);
            let len = fb.load_elem(rowlen, row, Ty::I64);
            let base = fb.mul(row, Value::i64(NNZ_PER_ROW), Ty::I64);
            fb.for_loop(Value::i64(0), len, |fb, j| {
                let k = fb.add(base, j, Ty::I64);
                let aval = fb.load_elem(vals, k, Ty::F64);
                // The signature HPCCG access: x[cols[k]] — an address
                // computed from a *loaded* index.
                let col = fb.load_elem(cols, k, Ty::I64);
                let xc = fb.load_elem(fb.arg(2), col, Ty::F64);
                let prod = fb.fmul(aval, xc, Ty::F64);
                let s0 = fb.load(sum, Ty::F64);
                let s1 = fb.fadd(s0, prod, Ty::F64);
                fb.store(s1, sum);
            });
            let s = fb.load(sum, Ty::F64);
            fb.store_elem(s, fb.arg(1), row, Ty::F64);
        });
        fb.ret(None);
    });

    // generate_matrix(): 27-point stencil on the nx³ chimney domain.
    let generate = mb.define("generate_matrix", vec![], None, |fb| {
        let (vals, cols, rowlen) = (fb.global(a_vals), fb.global(a_cols), fb.global(a_rowlen));
        let n = Value::i64(nx);
        fb.for_loop(Value::i64(0), n, |fb, iz| {
            fb.for_loop(Value::i64(0), n, |fb, iy| {
                fb.for_loop(Value::i64(0), n, |fb, ix| {
                    let zy = fb.mul(iz, n, Ty::I64);
                    let zy2 = fb.add(zy, iy, Ty::I64);
                    let zyx = fb.mul(zy2, n, Ty::I64);
                    let row = fb.add(zyx, ix, Ty::I64);
                    let cnt = fb.alloca(Ty::I64, 1);
                    fb.store(Value::i64(0), cnt);
                    fb.for_loop(Value::i64(-1), Value::i64(2), |fb, sz| {
                        fb.for_loop(Value::i64(-1), Value::i64(2), |fb, sy| {
                            fb.for_loop(Value::i64(-1), Value::i64(2), |fb, sx| {
                                let cz = fb.add(iz, sz, Ty::I64);
                                let cy = fb.add(iy, sy, Ty::I64);
                                let cx = fb.add(ix, sx, Ty::I64);
                                // In-bounds test for all three coords.
                                let okz0 = fb.icmp(ICmp::Sge, cz, Value::i64(0));
                                let okz1 = fb.icmp(ICmp::Slt, cz, n);
                                let oky0 = fb.icmp(ICmp::Sge, cy, Value::i64(0));
                                let oky1 = fb.icmp(ICmp::Slt, cy, n);
                                let okx0 = fb.icmp(ICmp::Sge, cx, Value::i64(0));
                                let okx1 = fb.icmp(ICmp::Slt, cx, n);
                                let a = fb.bin(tinyir::BinOp::And, okz0, okz1, Ty::I1);
                                let b = fb.bin(tinyir::BinOp::And, oky0, oky1, Ty::I1);
                                let c = fb.bin(tinyir::BinOp::And, okx0, okx1, Ty::I1);
                                let ab = fb.bin(tinyir::BinOp::And, a, b, Ty::I1);
                                let ok = fb.bin(tinyir::BinOp::And, ab, c, Ty::I1);
                                fb.if_then(ok, |fb| {
                                    let czy = fb.mul(cz, n, Ty::I64);
                                    let czy2 = fb.add(czy, cy, Ty::I64);
                                    let czyx = fb.mul(czy2, n, Ty::I64);
                                    let col = fb.add(czyx, cx, Ty::I64);
                                    let is_diag = fb.icmp(ICmp::Eq, col, row);
                                    let val = fb.select(
                                        is_diag,
                                        Value::f64(27.0),
                                        Value::f64(-1.0),
                                        Ty::F64,
                                    );
                                    let c0 = fb.load(cnt, Ty::I64);
                                    let rbase = fb.mul(row, Value::i64(NNZ_PER_ROW), Ty::I64);
                                    let k = fb.add(rbase, c0, Ty::I64);
                                    fb.store_elem(val, vals, k, Ty::F64);
                                    fb.store_elem(col, cols, k, Ty::I64);
                                    let c1 = fb.add(c0, Value::i64(1), Ty::I64);
                                    fb.store(c1, cnt);
                                });
                            });
                        });
                    });
                    let cfin = fb.load(cnt, Ty::I64);
                    fb.store_elem(cfin, rowlen, row, Ty::I64);
                });
            });
        });
        fb.ret(None);
    });

    // main(iters): CG solve of A·x = b with b = A·1.
    mb.define("main", vec![Ty::I64], Some(Ty::F64), |fb| {
        let n = Value::i64(nrows);
        fb.call(generate, vec![]);
        // x = 0, p = 1 (temporarily the "ones" vector), b = A·p.
        fb.for_loop(Value::i64(0), n, |fb, i| {
            fb.store_elem(Value::f64(0.0), fb.global(xv), i, Ty::F64);
            fb.store_elem(Value::f64(1.0), fb.global(pv), i, Ty::F64);
        });
        fb.call(sparsemv, vec![n, fb.global(bv), fb.global(pv)]);
        // r = b; p = r.
        fb.call(
            waxpby,
            vec![n, Value::f64(1.0), fb.global(bv), Value::f64(0.0), fb.global(xv), fb.global(rv)],
        );
        fb.call(
            waxpby,
            vec![n, Value::f64(1.0), fb.global(rv), Value::f64(0.0), fb.global(xv), fb.global(pv)],
        );
        let rtrans = fb.alloca(Ty::F64, 1);
        let rt0 = fb.call(ddot, vec![n, fb.global(rv), fb.global(rv)]);
        fb.store(rt0, rtrans);

        fb.for_loop(Value::i64(0), fb.arg(0), |fb, _k| {
            // q = A·p
            fb.call(sparsemv, vec![n, fb.global(qv), fb.global(pv)]);
            let pq = fb.call(ddot, vec![n, fb.global(pv), fb.global(qv)]);
            let rt = fb.load(rtrans, Ty::F64);
            let alpha = fb.fdiv(rt, pq, Ty::F64);
            // x += alpha·p
            fb.call(
                waxpby,
                vec![n, Value::f64(1.0), fb.global(xv), alpha, fb.global(pv), fb.global(xv)],
            );
            // r -= alpha·q
            let neg = fb.fsub(Value::f64(0.0), alpha, Ty::F64);
            fb.call(
                waxpby,
                vec![n, Value::f64(1.0), fb.global(rv), neg, fb.global(qv), fb.global(rv)],
            );
            let rt_new = fb.call(ddot, vec![n, fb.global(rv), fb.global(rv)]);
            let beta = fb.fdiv(rt_new, rt, Ty::F64);
            fb.store(rt_new, rtrans);
            // p = r + beta·p
            fb.call(
                waxpby,
                vec![n, Value::f64(1.0), fb.global(rv), beta, fb.global(pv), fb.global(pv)],
            );
        });

        // checksum[0] = ||r||, checksum[1] = x·x.
        let rt = fb.load(rtrans, Ty::F64);
        let norm = fb.sqrt(rt);
        fb.store_elem(norm, fb.global(checksum), Value::i64(0), Ty::F64);
        let xsum = fb.call(ddot, vec![n, fb.global(xv), fb.global(xv)]);
        fb.store_elem(xsum, fb.global(checksum), Value::i64(1), Ty::F64);
        let _ = CastOp::Sext;
        fb.ret(Some(norm));
    });

    let module = mb.finish();
    Workload::new(
        "HPCCG",
        module,
        vec![iters as u64],
        vec![("x", nrows as u64 * 8), ("checksum", 16)],
    )
}

/// Paper-scale default (kept small enough for 10 000-injection campaigns).
pub fn default() -> Workload {
    build(4, 6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyir::interp::{layout_globals, Interp};
    use tinyir::mem::PagedMemory;
    use tinyir::verify::verify_module;

    #[test]
    fn hpccg_converges_under_interpreter() {
        let w = build(3, 30);
        verify_module(&w.module).unwrap();
        let mut mem = PagedMemory::new();
        let globals = layout_globals(&w.module, &mut mem, 0x1000_0000);
        let mut interp = Interp::new(
            &w.module,
            &mut mem,
            &globals,
            0x7f00_0000_0000,
            0x7f00_0100_0000,
            0x6000_0000_0000,
            200_000_000,
        );
        let fid = w.module.func_by_name("main").unwrap();
        let bits = interp.call(fid, &w.args).unwrap().unwrap();
        let residual = f64::from_bits(bits);
        // CG on this SPD stencil matrix must drive the residual down hard.
        assert!(residual.is_finite());
        assert!(residual < 1e-6, "CG did not converge: {residual}");
    }
}
