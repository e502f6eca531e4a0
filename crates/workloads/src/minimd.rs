//! miniMD — a simple parallel molecular-dynamics mini-app (Table 1),
//! miniaturised: Lennard-Jones with an explicit Verlet *neighbour list*.
//!
//! Where CoMD walks link-cell chains, miniMD materialises `neigh[i*MAXN+m]`
//! index arrays and streams through them in the force kernel — the flat
//! indexed-gather pattern whose redundant-update elimination under `-O1`
//! *extends* CARE's recovery scope (paper Figure 8 / miniMD's +7 %
//! coverage).

use crate::spec::{init_f64, Workload};
use tinyir::builder::ModuleBuilder;
use tinyir::{GlobalInit, ICmp, Ty, Value};

/// Maximum neighbours tracked per atom.
const MAXN: i64 = 48;

/// Build the miniMD workload.
pub fn build(natoms: i64, steps: i64) -> Workload {
    let box_len = 3.0f64;
    let mut mb = ModuleBuilder::new("minimd", "minimd.cpp");

    let pos: Vec<f64> =
        (0..3 * natoms).map(|i| (init_f64(31, i as u64) * 0.5 + 0.5) * box_len).collect();
    let vel: Vec<f64> = (0..3 * natoms).map(|i| init_f64(37, i as u64) * 0.05).collect();
    let g_pos = mb.global_init("pos", Ty::F64, 3 * natoms as u32, GlobalInit::F64s(pos));
    let g_vel = mb.global_init("vel", Ty::F64, 3 * natoms as u32, GlobalInit::F64s(vel));
    let g_force = mb.global_zeroed("force", Ty::F64, 3 * natoms as u32);
    let g_neigh = mb.global_zeroed("neigh", Ty::I64, (natoms * MAXN) as u32);
    let g_numneigh = mb.global_zeroed("numneigh", Ty::I64, natoms as u32);
    let g_epot = mb.global_zeroed("e_pot", Ty::F64, 1);
    let g_checksum = mb.global_zeroed("checksum", Ty::F64, 2);

    let na = Value::i64(natoms);

    // dist2(i, j): squared distance.
    let dist2 = mb.define("dist2", vec![Ty::I64, Ty::I64], Some(Ty::F64), |fb| {
        let i3 = fb.mul(fb.arg(0), Value::i64(3), Ty::I64);
        let j3 = fb.mul(fb.arg(1), Value::i64(3), Ty::I64);
        let acc = fb.alloca(Ty::F64, 1);
        fb.store(Value::f64(0.0), acc);
        fb.for_loop(Value::i64(0), Value::i64(3), |fb, ax| {
            let ia = fb.add(i3, ax, Ty::I64);
            let ja = fb.add(j3, ax, Ty::I64);
            let pi = fb.load_elem(fb.global(g_pos), ia, Ty::F64);
            let pj = fb.load_elem(fb.global(g_pos), ja, Ty::F64);
            let d = fb.fsub(pi, pj, Ty::F64);
            let d2 = fb.fmul(d, d, Ty::F64);
            let a = fb.load(acc, Ty::F64);
            let s = fb.fadd(a, d2, Ty::F64);
            fb.store(s, acc);
        });
        let r = fb.load(acc, Ty::F64);
        fb.ret(Some(r));
    });

    // build_neighbors(): all-pairs with a skin radius (rebuilt per step,
    // like miniMD's re-neighbouring).
    let build_neighbors = mb.define("build_neighbors", vec![], None, |fb| {
        fb.for_loop(Value::i64(0), na, |fb, i| {
            let cnt = fb.alloca(Ty::I64, 1);
            fb.store(Value::i64(0), cnt);
            fb.for_loop(Value::i64(0), na, |fb, j| {
                let ne = fb.icmp(ICmp::Ne, i, j);
                fb.if_then(ne, |fb| {
                    let r2 = fb.call(dist2, vec![i, j]);
                    // Neighbour skin: (cutoff+skin)² = 1.3² = 1.69.
                    let close = fb.fcmp(tinyir::FCmp::Olt, r2, Value::f64(1.69));
                    fb.if_then(close, |fb| {
                        let c = fb.load(cnt, Ty::I64);
                        let room = fb.icmp(ICmp::Slt, c, Value::i64(MAXN));
                        fb.if_then(room, |fb| {
                            let base = fb.mul(i, Value::i64(MAXN), Ty::I64);
                            let slot = fb.add(base, c, Ty::I64);
                            fb.store_elem(j, fb.global(g_neigh), slot, Ty::I64);
                            let c1 = fb.add(c, Value::i64(1), Ty::I64);
                            fb.store(c1, cnt);
                        });
                    });
                });
            });
            let cfin = fb.load(cnt, Ty::I64);
            fb.store_elem(cfin, fb.global(g_numneigh), i, Ty::I64);
        });
        fb.ret(None);
    });

    // force(): LJ over the neighbour list — neigh[i*MAXN+m] gathers.
    let force = mb.define("force", vec![], None, |fb| {
        fb.store_elem(Value::f64(0.0), fb.global(g_epot), Value::i64(0), Ty::F64);
        let n3 = fb.mul(na, Value::i64(3), Ty::I64);
        fb.for_loop(Value::i64(0), n3, |fb, k| {
            fb.store_elem(Value::f64(0.0), fb.global(g_force), k, Ty::F64);
        });
        fb.for_loop(Value::i64(0), na, |fb, i| {
            let nn = fb.load_elem(fb.global(g_numneigh), i, Ty::I64);
            let base = fb.mul(i, Value::i64(MAXN), Ty::I64);
            let i3 = fb.mul(i, Value::i64(3), Ty::I64);
            fb.for_loop(Value::i64(0), nn, |fb, m| {
                let slot = fb.add(base, m, Ty::I64);
                let j = fb.load_elem(fb.global(g_neigh), slot, Ty::I64);
                let r2 = fb.call(dist2, vec![i, j]);
                let in_cut = fb.fcmp(tinyir::FCmp::Olt, r2, Value::f64(1.0));
                let sane = fb.fcmp(tinyir::FCmp::Ogt, r2, Value::f64(1e-9));
                let go = fb.bin(tinyir::BinOp::And, in_cut, sane, Ty::I1);
                fb.if_then(go, |fb| {
                    let s2 = fb.fdiv(Value::f64(0.16), r2, Ty::F64);
                    let s4 = fb.fmul(s2, s2, Ty::F64);
                    let s6 = fb.fmul(s4, s2, Ty::F64);
                    let s12 = fb.fmul(s6, s6, Ty::F64);
                    let diff = fb.fsub(s12, s6, Ty::F64);
                    let e = fb.fmul(Value::f64(2.0), diff, Ty::F64); // half per pair
                    let ep = fb.load_elem(fb.global(g_epot), Value::i64(0), Ty::F64);
                    let ep1 = fb.fadd(ep, e, Ty::F64);
                    fb.store_elem(ep1, fb.global(g_epot), Value::i64(0), Ty::F64);
                    let t = fb.fmul(Value::f64(2.0), s12, Ty::F64);
                    let t2 = fb.fsub(t, s6, Ty::F64);
                    let t3 = fb.fmul(Value::f64(24.0), t2, Ty::F64);
                    let fmag = fb.fdiv(t3, r2, Ty::F64);
                    let j3 = fb.mul(j, Value::i64(3), Ty::I64);
                    fb.for_loop(Value::i64(0), Value::i64(3), |fb, ax| {
                        let ia = fb.add(i3, ax, Ty::I64);
                        let ja = fb.add(j3, ax, Ty::I64);
                        let pi = fb.load_elem(fb.global(g_pos), ia, Ty::F64);
                        let pj = fb.load_elem(fb.global(g_pos), ja, Ty::F64);
                        let d = fb.fsub(pi, pj, Ty::F64);
                        let fc = fb.fmul(fmag, d, Ty::F64);
                        let f0 = fb.load_elem(fb.global(g_force), ia, Ty::F64);
                        let f1 = fb.fadd(f0, fc, Ty::F64);
                        fb.store_elem(f1, fb.global(g_force), ia, Ty::F64);
                    });
                });
            });
        });
        fb.ret(None);
    });

    // main(steps): leapfrog with per-step re-neighbouring.
    mb.define("main", vec![Ty::I64], Some(Ty::F64), |fb| {
        let dt = Value::f64(0.002);
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, _s| {
            fb.call(build_neighbors, vec![]);
            fb.call(force, vec![]);
            let n3 = fb.mul(na, Value::i64(3), Ty::I64);
            fb.for_loop(Value::i64(0), n3, |fb, k| {
                let v = fb.load_elem(fb.global(g_vel), k, Ty::F64);
                let f = fb.load_elem(fb.global(g_force), k, Ty::F64);
                let dv = fb.fmul(f, dt, Ty::F64);
                let v1 = fb.fadd(v, dv, Ty::F64);
                let x = fb.load_elem(fb.global(g_pos), k, Ty::F64);
                let dx = fb.fmul(v1, dt, Ty::F64);
                let x1 = fb.fadd(x, dx, Ty::F64);
                fb.store_elem(v1, fb.global(g_vel), k, Ty::F64);
                fb.store_elem(x1, fb.global(g_pos), k, Ty::F64);
            });
        });
        let ep = fb.load_elem(fb.global(g_epot), Value::i64(0), Ty::F64);
        fb.store_elem(ep, fb.global(g_checksum), Value::i64(0), Ty::F64);
        let acc = fb.alloca(Ty::F64, 1);
        fb.store(Value::f64(0.0), acc);
        let n3 = fb.mul(na, Value::i64(3), Ty::I64);
        fb.for_loop(Value::i64(0), n3, |fb, k| {
            let x = fb.load_elem(fb.global(g_pos), k, Ty::F64);
            let a = fb.load(acc, Ty::F64);
            let s = fb.fadd(a, x, Ty::F64);
            fb.store(s, acc);
        });
        let xsum = fb.load(acc, Ty::F64);
        fb.store_elem(xsum, fb.global(g_checksum), Value::i64(1), Ty::F64);
        fb.ret(Some(ep));
    });

    let module = mb.finish();
    Workload::new(
        "miniMD",
        module,
        vec![steps as u64],
        vec![("pos", 3 * natoms as u64 * 8), ("vel", 3 * natoms as u64 * 8), ("checksum", 16)],
    )
}

/// Campaign-scale default.
pub fn default() -> Workload {
    build(32, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyir::interp::{layout_globals, Interp};
    use tinyir::mem::PagedMemory;
    use tinyir::verify::verify_module;

    #[test]
    fn minimd_runs_and_builds_neighbor_lists() {
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
        assert!(f64::from_bits(bits).is_finite());
    }
}
