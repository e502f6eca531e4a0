//! miniFE — an implicit finite-element mini-app (Table 1), miniaturised:
//! assembly of a sparse linear system from 8-node hex elements on a brick
//! domain, followed by an un-preconditioned CG solve.
//!
//! The assembly's scatter — searching each row's column list for the slot
//! matching a global node id — is a load-dependent address computation
//! chain, the deepest in the workload set (the paper's miniFE row of
//! Table 5 shows 94 % multi-op accesses).

use crate::spec::Workload;
use tinyir::builder::ModuleBuilder;
use tinyir::{ICmp, Ty, Value};

/// Nonzero slots per matrix row (27 for a trilinear hex mesh).
const SLOTS: i64 = 27;

/// Build the miniFE workload for an `ne³`-element brick and `iters` CG
/// iterations.
pub fn build(ne: i64, iters: i64) -> Workload {
    let nn = ne + 1; // nodes per edge
    let nnodes = nn * nn * nn;
    let mut mb = ModuleBuilder::new("minife", "minife.cpp");

    let a_vals = mb.global_zeroed("a_vals", Ty::F64, (nnodes * SLOTS) as u32);
    let a_cols = mb.global_zeroed("a_cols", Ty::I64, (nnodes * SLOTS) as u32);
    let a_rowlen = mb.global_zeroed("a_rowlen", Ty::I64, nnodes as u32);
    let xv = mb.global_zeroed("x", Ty::F64, nnodes as u32);
    let bv = mb.global_zeroed("b", Ty::F64, nnodes as u32);
    let rv = mb.global_zeroed("r", Ty::F64, nnodes as u32);
    let pv = mb.global_zeroed("p", Ty::F64, nnodes as u32);
    let qv = mb.global_zeroed("q", Ty::F64, nnodes as u32);
    let g_checksum = mb.global_zeroed("checksum", Ty::F64, 2);

    // add_entry(row, col, val): search the row's column list for `col`,
    // accumulating into the existing slot or appending a new one.
    let add_entry = mb.define("add_entry", vec![Ty::I64, Ty::I64, Ty::F64], None, |fb| {
        let (row, col, val) = (fb.arg(0), fb.arg(1), fb.arg(2));
        let base = fb.mul(row, Value::i64(SLOTS), Ty::I64);
        let len = fb.load_elem(fb.global(a_rowlen), row, Ty::I64);
        let found = fb.alloca(Ty::I64, 1);
        fb.store(Value::i64(-1), found);
        fb.for_loop(Value::i64(0), len, |fb, s| {
            let k = fb.add(base, s, Ty::I64);
            let c = fb.load_elem(fb.global(a_cols), k, Ty::I64);
            let hit = fb.icmp(ICmp::Eq, c, col);
            fb.if_then(hit, |fb| {
                fb.store(s, found);
            });
        });
        let fidx = fb.load(found, Ty::I64);
        let missing = fb.icmp(ICmp::Slt, fidx, Value::i64(0));
        fb.if_then_else(
            missing,
            |fb| {
                // Append.
                let k = fb.add(base, len, Ty::I64);
                fb.store_elem(col, fb.global(a_cols), k, Ty::I64);
                fb.store_elem(val, fb.global(a_vals), k, Ty::F64);
                let l1 = fb.add(len, Value::i64(1), Ty::I64);
                fb.store_elem(l1, fb.global(a_rowlen), row, Ty::I64);
            },
            |fb| {
                // Accumulate.
                let k = fb.add(base, fidx, Ty::I64);
                let cur = fb.load_elem(fb.global(a_vals), k, Ty::F64);
                let upd = fb.fadd(cur, val, Ty::F64);
                fb.store_elem(upd, fb.global(a_vals), k, Ty::F64);
            },
        );
        fb.ret(None);
    });

    // node_id(ix, iy, iz) for the nn³ lattice.
    let node_id = mb.define("node_id", vec![Ty::I64, Ty::I64, Ty::I64], Some(Ty::I64), |fb| {
        let n = Value::i64(nn);
        let zy = fb.mul(fb.arg(2), n, Ty::I64);
        let zy2 = fb.add(zy, fb.arg(1), Ty::I64);
        let zyx = fb.mul(zy2, n, Ty::I64);
        let id = fb.add(zyx, fb.arg(0), Ty::I64);
        fb.ret(Some(id));
    });

    // assemble(): loop elements, scatter an 8×8 local stiffness (diag 8,
    // off-diagonal −8/7 scaled: a crude but SPD surrogate for the hex
    // Laplacian).
    let assemble = mb.define("assemble", vec![], None, |fb| {
        let e = Value::i64(ne);
        fb.for_loop(Value::i64(0), e, |fb, ez| {
            fb.for_loop(Value::i64(0), e, |fb, ey| {
                fb.for_loop(Value::i64(0), e, |fb, ex| {
                    // The 8 element nodes.
                    let nodes = fb.alloca(Ty::I64, 8);
                    fb.for_loop(Value::i64(0), Value::i64(8), |fb, c| {
                        // Corner bits: dx = c&1, dy = (c>>1)&1, dz = (c>>2)&1.
                        let dx = fb.bin(tinyir::BinOp::And, c, Value::i64(1), Ty::I64);
                        let c1 = fb.bin(tinyir::BinOp::LShr, c, Value::i64(1), Ty::I64);
                        let dy = fb.bin(tinyir::BinOp::And, c1, Value::i64(1), Ty::I64);
                        let c2 = fb.bin(tinyir::BinOp::LShr, c, Value::i64(2), Ty::I64);
                        let dz = fb.bin(tinyir::BinOp::And, c2, Value::i64(1), Ty::I64);
                        let ix = fb.add(ex, dx, Ty::I64);
                        let iy = fb.add(ey, dy, Ty::I64);
                        let iz = fb.add(ez, dz, Ty::I64);
                        let id = fb.call(node_id, vec![ix, iy, iz]);
                        fb.store_elem(id, nodes, c, Ty::I64);
                    });
                    // Scatter the local matrix.
                    fb.for_loop(Value::i64(0), Value::i64(8), |fb, li| {
                        let gi = fb.load_elem(nodes, li, Ty::I64);
                        fb.for_loop(Value::i64(0), Value::i64(8), |fb, lj| {
                            let gj = fb.load_elem(nodes, lj, Ty::I64);
                            let diag = fb.icmp(ICmp::Eq, li, lj);
                            // Diagonal 9 vs off-diagonal −8/7 keeps each
                            // element row sum positive (diagonally dominant
                            // SPD surrogate), so b = A·1 is nonzero.
                            let val =
                                fb.select(diag, Value::f64(9.0), Value::f64(-8.0 / 7.0), Ty::F64);
                            fb.call(add_entry, vec![gi, gj, val]);
                        });
                    });
                });
            });
        });
        fb.ret(None);
    });

    // sparsemv / ddot / waxpby (same kernels as HPCCG but over this mesh).
    let sparsemv = mb.define("sparsemv", vec![Ty::Ptr, Ty::Ptr], None, |fb| {
        fb.for_loop(Value::i64(0), Value::i64(nnodes), |fb, row| {
            let sum = fb.alloca(Ty::F64, 1);
            fb.store(Value::f64(0.0), sum);
            let len = fb.load_elem(fb.global(a_rowlen), row, Ty::I64);
            let base = fb.mul(row, Value::i64(SLOTS), Ty::I64);
            fb.for_loop(Value::i64(0), len, |fb, s| {
                let k = fb.add(base, s, Ty::I64);
                let a = fb.load_elem(fb.global(a_vals), k, Ty::F64);
                let c = fb.load_elem(fb.global(a_cols), k, Ty::I64);
                let xc = fb.load_elem(fb.arg(1), c, Ty::F64);
                let prod = fb.fmul(a, xc, Ty::F64);
                let s0 = fb.load(sum, Ty::F64);
                let s1 = fb.fadd(s0, prod, Ty::F64);
                fb.store(s1, sum);
            });
            let s = fb.load(sum, Ty::F64);
            fb.store_elem(s, fb.arg(0), row, Ty::F64);
        });
        fb.ret(None);
    });
    let ddot = mb.define("ddot", vec![Ty::Ptr, Ty::Ptr], Some(Ty::F64), |fb| {
        let acc = fb.alloca(Ty::F64, 1);
        fb.store(Value::f64(0.0), acc);
        fb.for_loop(Value::i64(0), Value::i64(nnodes), |fb, i| {
            let a = fb.load_elem(fb.arg(0), i, Ty::F64);
            let b = fb.load_elem(fb.arg(1), i, Ty::F64);
            let p = fb.fmul(a, b, Ty::F64);
            let s0 = fb.load(acc, Ty::F64);
            let s1 = fb.fadd(s0, p, Ty::F64);
            fb.store(s1, acc);
        });
        let r = fb.load(acc, Ty::F64);
        fb.ret(Some(r));
    });
    let waxpby =
        mb.define("waxpby", vec![Ty::F64, Ty::Ptr, Ty::F64, Ty::Ptr, Ty::Ptr], None, |fb| {
            fb.for_loop(Value::i64(0), Value::i64(nnodes), |fb, i| {
                let x = fb.load_elem(fb.arg(1), i, Ty::F64);
                let ax = fb.fmul(fb.arg(0), x, Ty::F64);
                let y = fb.load_elem(fb.arg(3), i, Ty::F64);
                let by = fb.fmul(fb.arg(2), y, Ty::F64);
                let w = fb.fadd(ax, by, Ty::F64);
                fb.store_elem(w, fb.arg(4), i, Ty::F64);
            });
            fb.ret(None);
        });

    // main(iters): assemble, b = A·1, CG.
    mb.define("main", vec![Ty::I64], Some(Ty::F64), |fb| {
        fb.call(assemble, vec![]);
        fb.for_loop(Value::i64(0), Value::i64(nnodes), |fb, i| {
            fb.store_elem(Value::f64(0.0), fb.global(xv), i, Ty::F64);
            fb.store_elem(Value::f64(1.0), fb.global(pv), i, Ty::F64);
        });
        fb.call(sparsemv, vec![fb.global(bv), fb.global(pv)]);
        fb.call(
            waxpby,
            vec![Value::f64(1.0), fb.global(bv), Value::f64(0.0), fb.global(xv), fb.global(rv)],
        );
        fb.call(
            waxpby,
            vec![Value::f64(1.0), fb.global(rv), Value::f64(0.0), fb.global(xv), fb.global(pv)],
        );
        let rtrans = fb.alloca(Ty::F64, 1);
        let rt0 = fb.call(ddot, vec![fb.global(rv), fb.global(rv)]);
        fb.store(rt0, rtrans);
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, _k| {
            fb.call(sparsemv, vec![fb.global(qv), fb.global(pv)]);
            let pq = fb.call(ddot, vec![fb.global(pv), fb.global(qv)]);
            let rt = fb.load(rtrans, Ty::F64);
            let alpha = fb.fdiv(rt, pq, Ty::F64);
            fb.call(
                waxpby,
                vec![Value::f64(1.0), fb.global(xv), alpha, fb.global(pv), fb.global(xv)],
            );
            let neg = fb.fsub(Value::f64(0.0), alpha, Ty::F64);
            fb.call(
                waxpby,
                vec![Value::f64(1.0), fb.global(rv), neg, fb.global(qv), fb.global(rv)],
            );
            let rt_new = fb.call(ddot, vec![fb.global(rv), fb.global(rv)]);
            let beta = fb.fdiv(rt_new, rt, Ty::F64);
            fb.store(rt_new, rtrans);
            fb.call(
                waxpby,
                vec![Value::f64(1.0), fb.global(rv), beta, fb.global(pv), fb.global(pv)],
            );
        });
        let rt = fb.load(rtrans, Ty::F64);
        let norm = fb.sqrt(rt);
        fb.store_elem(norm, fb.global(g_checksum), Value::i64(0), Ty::F64);
        let xx = fb.call(ddot, vec![fb.global(xv), fb.global(xv)]);
        fb.store_elem(xx, fb.global(g_checksum), Value::i64(1), Ty::F64);
        fb.ret(Some(norm));
    });

    let module = mb.finish();
    Workload::new(
        "miniFE",
        module,
        vec![iters as u64],
        vec![("x", nnodes as u64 * 8), ("checksum", 16)],
    )
}

/// Campaign-scale default.
pub fn default() -> Workload {
    build(2, 6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyir::interp::{layout_globals, Interp};
    use tinyir::mem::PagedMemory;
    use tinyir::verify::verify_module;

    #[test]
    fn minife_assembles_and_solves() {
        let w = build(2, 30);
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
            500_000_000,
        );
        let fid = w.module.func_by_name("main").unwrap();
        let bits = interp.call(fid, &w.args).unwrap().unwrap();
        let res = f64::from_bits(bits);
        assert!(res.is_finite());
        assert!(res < 1e-5, "CG residual after exact-dim iterations: {res}");
    }
}
