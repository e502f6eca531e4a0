//! CoMD — a reference classical molecular-dynamics mini-app (Table 1),
//! miniaturised: link-cell Lennard-Jones with velocity-Verlet integration.
//!
//! The CARE-relevant structure is the link-cell traversal: per-atom cell
//! ids, per-cell list heads and per-atom `next` chains produce long
//! address-computation sequences (`pos[3*cellList[head[cellOf[i]]]]`-style)
//! with rarely-updated bases — the access profile the paper credits for
//! CoMD's recoverable-fault population.

use crate::spec::{init_f64, Workload};
use tinyir::builder::ModuleBuilder;
use tinyir::{GlobalInit, ICmp, Ty, Value};

/// Build the CoMD workload: `natoms` atoms in an `ncell³` link-cell box,
/// advanced `steps` velocity-Verlet steps.
pub fn build(natoms: i64, ncell: i64, steps: i64) -> Workload {
    let ncells = ncell * ncell * ncell;
    let box_len = ncell as f64; // cell size 1.0 => cutoff 1.0
    let mut mb = ModuleBuilder::new("comd", "comd.c");

    // SoA particle state.
    let pos: Vec<f64> =
        (0..3 * natoms).map(|i| (init_f64(23, i as u64) * 0.5 + 0.5) * box_len).collect();
    let vel: Vec<f64> = (0..3 * natoms).map(|i| init_f64(29, i as u64) * 0.05).collect();
    let g_pos = mb.global_init("pos", Ty::F64, 3 * natoms as u32, GlobalInit::F64s(pos));
    let g_vel = mb.global_init("vel", Ty::F64, 3 * natoms as u32, GlobalInit::F64s(vel));
    let g_force = mb.global_zeroed("force", Ty::F64, 3 * natoms as u32);
    let g_head = mb.global_zeroed("cell_head", Ty::I64, ncells as u32);
    let g_next = mb.global_zeroed("atom_next", Ty::I64, natoms as u32);
    let g_epot = mb.global_zeroed("e_pot", Ty::F64, 1);
    let g_checksum = mb.global_zeroed("checksum", Ty::F64, 2);

    let na = Value::i64(natoms);
    let nc = Value::i64(ncell);

    // cell_of(i): clamp(floor(pos)) per axis, linearised.
    let cell_of = mb.define("cell_of", vec![Ty::I64], Some(Ty::I64), |fb| {
        let i3 = fb.mul(fb.arg(0), Value::i64(3), Ty::I64);
        let acc = fb.alloca(Ty::I64, 1);
        fb.store(Value::i64(0), acc);
        fb.for_loop(Value::i64(0), Value::i64(3), |fb, ax| {
            let idx = fb.add(i3, ax, Ty::I64);
            let p = fb.load_elem(fb.global(g_pos), idx, Ty::F64);
            let ci = fb.cast(tinyir::CastOp::FpToSi, p, Ty::I64);
            let lo = fb.intrinsic(tinyir::Intrinsic::IMax, vec![ci, Value::i64(0)]);
            let n1 = fb.sub(nc, Value::i64(1), Ty::I64);
            let c = fb.intrinsic(tinyir::Intrinsic::IMin, vec![lo, n1]);
            let a = fb.load(acc, Ty::I64);
            let an = fb.mul(a, nc, Ty::I64);
            let a2 = fb.add(an, c, Ty::I64);
            fb.store(a2, acc);
        });
        let r = fb.load(acc, Ty::I64);
        fb.ret(Some(r));
    });

    // build_cells(): reset heads to -1, push each atom onto its cell list.
    let build_cells = mb.define("build_cells", vec![], None, |fb| {
        fb.for_loop(Value::i64(0), Value::i64(ncells), |fb, c| {
            fb.store_elem(Value::i64(-1), fb.global(g_head), c, Ty::I64);
        });
        fb.for_loop(Value::i64(0), na, |fb, i| {
            let c = fb.call(cell_of, vec![i]);
            let old = fb.load_elem(fb.global(g_head), c, Ty::I64);
            fb.store_elem(old, fb.global(g_next), i, Ty::I64);
            fb.store_elem(i, fb.global(g_head), c, Ty::I64);
        });
        fb.ret(None);
    });

    // lj_pair(i, j): accumulate the LJ force of j on i (and energy).
    let lj_pair = mb.define("lj_pair", vec![Ty::I64, Ty::I64], None, |fb| {
        let (i, j) = (fb.arg(0), fb.arg(1));
        let same = fb.icmp(ICmp::Eq, i, j);
        let done = fb.new_block("done");
        let work = fb.new_block("work");
        fb.cond_br(same, done, work);
        fb.switch_to(work);
        let i3 = fb.mul(i, Value::i64(3), Ty::I64);
        let j3 = fb.mul(j, Value::i64(3), Ty::I64);
        // r2 = Σ (pos[i3+a] - pos[j3+a])²  (open boundaries)
        let r2s = fb.alloca(Ty::F64, 1);
        fb.store(Value::f64(0.0), r2s);
        let dxs = fb.alloca(Ty::F64, 3);
        fb.for_loop(Value::i64(0), Value::i64(3), |fb, ax| {
            let ia = fb.add(i3, ax, Ty::I64);
            let ja = fb.add(j3, ax, Ty::I64);
            let pi = fb.load_elem(fb.global(g_pos), ia, Ty::F64);
            let pj = fb.load_elem(fb.global(g_pos), ja, Ty::F64);
            let d = fb.fsub(pi, pj, Ty::F64);
            fb.store_elem(d, dxs, ax, Ty::F64);
            let d2 = fb.fmul(d, d, Ty::F64);
            let a = fb.load(r2s, Ty::F64);
            let s = fb.fadd(a, d2, Ty::F64);
            fb.store(s, r2s);
        });
        let r2 = fb.load(r2s, Ty::F64);
        // Cutoff at 1.0 (cell size); also guard r2 ~ 0.
        let in_cut = fb.fcmp(tinyir::FCmp::Olt, r2, Value::f64(1.0));
        let not_self = fb.fcmp(tinyir::FCmp::Ogt, r2, Value::f64(1e-9));
        let go = fb.bin(tinyir::BinOp::And, in_cut, not_self, Ty::I1);
        fb.if_then(go, |fb| {
            // sigma = 0.4: s2 = sigma²/r2; s6 = s2³.
            let s2 = fb.fdiv(Value::f64(0.16), r2, Ty::F64);
            let s4 = fb.fmul(s2, s2, Ty::F64);
            let s6 = fb.fmul(s4, s2, Ty::F64);
            let s12 = fb.fmul(s6, s6, Ty::F64);
            let diff = fb.fsub(s12, s6, Ty::F64);
            let e = fb.fmul(Value::f64(4.0), diff, Ty::F64);
            let ep = fb.load_elem(fb.global(g_epot), Value::i64(0), Ty::F64);
            let ep2 = fb.fadd(ep, e, Ty::F64);
            fb.store_elem(ep2, fb.global(g_epot), Value::i64(0), Ty::F64);
            // f = 24(2·s12 − s6)/r2 · dx
            let t = fb.fmul(Value::f64(2.0), s12, Ty::F64);
            let t2 = fb.fsub(t, s6, Ty::F64);
            let t3 = fb.fmul(Value::f64(24.0), t2, Ty::F64);
            let fmag = fb.fdiv(t3, r2, Ty::F64);
            fb.for_loop(Value::i64(0), Value::i64(3), |fb, ax| {
                let d = fb.load_elem(dxs, ax, Ty::F64);
                let fc = fb.fmul(fmag, d, Ty::F64);
                let ia = fb.add(i3, ax, Ty::I64);
                let f0 = fb.load_elem(fb.global(g_force), ia, Ty::F64);
                let f1 = fb.fadd(f0, fc, Ty::F64);
                fb.store_elem(f1, fb.global(g_force), ia, Ty::F64);
            });
        });
        fb.br(done);
        fb.switch_to(done);
        fb.ret(None);
    });

    // compute_force(): zero forces, then for each atom walk the 27
    // neighbouring cell chains.
    let compute_force = mb.define("compute_force", vec![], None, |fb| {
        fb.store_elem(Value::f64(0.0), fb.global(g_epot), Value::i64(0), Ty::F64);
        let n3 = fb.mul(na, Value::i64(3), Ty::I64);
        fb.for_loop(Value::i64(0), n3, |fb, k| {
            fb.store_elem(Value::f64(0.0), fb.global(g_force), k, Ty::F64);
        });
        fb.call(build_cells, vec![]);
        fb.for_loop(Value::i64(0), na, |fb, i| {
            let ci = fb.call(cell_of, vec![i]);
            // Decompose the cell id: cz = ci/(n*n), cy = (ci/n)%n, cx = ci%n.
            let nn = fb.mul(nc, nc, Ty::I64);
            let cz = fb.sdiv(ci, nn, Ty::I64);
            let cyx = fb.srem(ci, nn, Ty::I64);
            let cy = fb.sdiv(cyx, nc, Ty::I64);
            let cx = fb.srem(cyx, nc, Ty::I64);
            fb.for_loop(Value::i64(-1), Value::i64(2), |fb, dz| {
                fb.for_loop(Value::i64(-1), Value::i64(2), |fb, dy| {
                    fb.for_loop(Value::i64(-1), Value::i64(2), |fb, dx| {
                        let nz = fb.add(cz, dz, Ty::I64);
                        let ny = fb.add(cy, dy, Ty::I64);
                        let nx = fb.add(cx, dx, Ty::I64);
                        let okz0 = fb.icmp(ICmp::Sge, nz, Value::i64(0));
                        let okz1 = fb.icmp(ICmp::Slt, nz, nc);
                        let oky0 = fb.icmp(ICmp::Sge, ny, Value::i64(0));
                        let oky1 = fb.icmp(ICmp::Slt, ny, nc);
                        let okx0 = fb.icmp(ICmp::Sge, nx, Value::i64(0));
                        let okx1 = fb.icmp(ICmp::Slt, nx, nc);
                        let a = fb.bin(tinyir::BinOp::And, okz0, okz1, Ty::I1);
                        let b = fb.bin(tinyir::BinOp::And, oky0, oky1, Ty::I1);
                        let c = fb.bin(tinyir::BinOp::And, okx0, okx1, Ty::I1);
                        let ab = fb.bin(tinyir::BinOp::And, a, b, Ty::I1);
                        let ok = fb.bin(tinyir::BinOp::And, ab, c, Ty::I1);
                        fb.if_then(ok, |fb| {
                            let zz = fb.mul(nz, nc, Ty::I64);
                            let zy = fb.add(zz, ny, Ty::I64);
                            let zyx = fb.mul(zy, nc, Ty::I64);
                            let cell = fb.add(zyx, nx, Ty::I64);
                            // Walk the chain: j = head[cell]; while j >= 0.
                            let cur = fb.alloca(Ty::I64, 1);
                            let h = fb.load_elem(fb.global(g_head), cell, Ty::I64);
                            fb.store(h, cur);
                            let header = fb.new_block("chain.header");
                            let body = fb.new_block("chain.body");
                            let exit = fb.new_block("chain.exit");
                            fb.br(header);
                            fb.switch_to(header);
                            let j = fb.load(cur, Ty::I64);
                            let alive = fb.icmp(ICmp::Sge, j, Value::i64(0));
                            fb.cond_br(alive, body, exit);
                            fb.switch_to(body);
                            let j2 = fb.load(cur, Ty::I64);
                            fb.call(lj_pair, vec![i, j2]);
                            let nxt = fb.load_elem(fb.global(g_next), j2, Ty::I64);
                            fb.store(nxt, cur);
                            fb.br(header);
                            fb.switch_to(exit);
                        });
                    });
                });
            });
        });
        fb.ret(None);
    });

    // main(steps): velocity Verlet (forces are recomputed each half-kick).
    mb.define("main", vec![Ty::I64], Some(Ty::F64), |fb| {
        let dt = Value::f64(0.002);
        let half_dt = Value::f64(0.001);
        fb.call(compute_force, vec![]);
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, _s| {
            let n3 = fb.mul(na, Value::i64(3), Ty::I64);
            // v += f·dt/2 ; x += v·dt
            fb.for_loop(Value::i64(0), n3, |fb, k| {
                let v = fb.load_elem(fb.global(g_vel), k, Ty::F64);
                let f = fb.load_elem(fb.global(g_force), k, Ty::F64);
                let dv = fb.fmul(f, half_dt, Ty::F64);
                let v1 = fb.fadd(v, dv, Ty::F64);
                let x = fb.load_elem(fb.global(g_pos), k, Ty::F64);
                let dx = fb.fmul(v1, dt, Ty::F64);
                let x1 = fb.fadd(x, dx, Ty::F64);
                fb.store_elem(x1, fb.global(g_pos), k, Ty::F64);
                fb.store_elem(v1, fb.global(g_vel), k, Ty::F64);
            });
            fb.call(compute_force, vec![]);
            // v += f·dt/2
            fb.for_loop(Value::i64(0), n3, |fb, k| {
                let v = fb.load_elem(fb.global(g_vel), k, Ty::F64);
                let f = fb.load_elem(fb.global(g_force), k, Ty::F64);
                let dv = fb.fmul(f, half_dt, Ty::F64);
                let v1 = fb.fadd(v, dv, Ty::F64);
                fb.store_elem(v1, fb.global(g_vel), k, Ty::F64);
            });
        });
        // checksum[0] = E_pot, checksum[1] = Σ v².
        let ep = fb.load_elem(fb.global(g_epot), Value::i64(0), Ty::F64);
        fb.store_elem(ep, fb.global(g_checksum), Value::i64(0), Ty::F64);
        let acc = fb.alloca(Ty::F64, 1);
        fb.store(Value::f64(0.0), acc);
        let n3 = fb.mul(na, Value::i64(3), Ty::I64);
        fb.for_loop(Value::i64(0), n3, |fb, k| {
            let v = fb.load_elem(fb.global(g_vel), k, Ty::F64);
            let v2 = fb.fmul(v, v, Ty::F64);
            let a = fb.load(acc, Ty::F64);
            let s = fb.fadd(a, v2, Ty::F64);
            fb.store(s, acc);
        });
        let ke = fb.load(acc, Ty::F64);
        fb.store_elem(ke, fb.global(g_checksum), Value::i64(1), Ty::F64);
        fb.ret(Some(ep));
    });

    let module = mb.finish();
    Workload::new(
        "CoMD",
        module,
        vec![steps as u64],
        vec![("pos", 3 * natoms as u64 * 8), ("vel", 3 * natoms as u64 * 8), ("checksum", 16)],
    )
}

/// Campaign-scale default.
pub fn default() -> Workload {
    build(32, 3, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyir::interp::{layout_globals, Interp};
    use tinyir::mem::PagedMemory;
    use tinyir::verify::verify_module;

    #[test]
    fn comd_runs_with_finite_energy() {
        let w = default();
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
        let epot = f64::from_bits(bits);
        assert!(epot.is_finite(), "potential energy must stay finite: {epot}");
    }
}
