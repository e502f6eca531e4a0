//! GTC-P — a 2-D domain-decomposition gyrokinetic particle-in-cell code
//! (Table 1), miniaturised.
//!
//! This reproduces the exact access pattern of the paper's Figure 2:
//! `phitmp[(mzeta+1)*(igrid[i]-igrid_in)+k]` — a deposition/gather index
//! built from an irregular per-surface offset table (`igrid`), a rarely-
//! changing scalar (`mzeta`), and per-particle state. GTC-P is also the
//! workload with the paper's largest `SIGABRT` population (Table 3), which
//! we model with the original code's bounds assertions around the
//! deposition scatter.

use crate::spec::{init_f64, Workload};
use tinyir::builder::ModuleBuilder;
use tinyir::{CastOp, GlobalInit, ICmp, Intrinsic, Ty, Value};

/// Build the GTC-P workload.
///
/// * `mpsi` — radial surfaces,
/// * `mzeta` — toroidal planes,
/// * `nparticles` — particles,
/// * `steps` — time steps.
pub fn build(mpsi: i64, mzeta: i64, nparticles: i64, steps: i64) -> Workload {
    // Poloidal points per surface grow with radius: mtheta[i] = 8 + 2i.
    let mtheta: Vec<i64> = (0..mpsi).map(|i| 8 + 2 * i).collect();
    let mgrid: i64 = mtheta.iter().sum();
    let field_len = (mzeta + 1) * mgrid;
    let igrid: Vec<i64> = mtheta
        .iter()
        .scan(0i64, |acc, &m| {
            let v = *acc;
            *acc += m;
            Some(v)
        })
        .collect();

    let mut mb = ModuleBuilder::new("gtcp", "gtcp.c");
    let g_mtheta = mb.global_init("mtheta", Ty::I64, mpsi as u32, GlobalInit::I64s(mtheta));
    let g_igrid = mb.global_init("igrid", Ty::I64, mpsi as u32, GlobalInit::I64s(igrid));
    let g_phitmp = mb.global_zeroed("phitmp", Ty::F64, field_len as u32);
    let g_density = mb.global_zeroed("densityi", Ty::F64, field_len as u32);
    // Particle state: radial surface, poloidal cell, toroidal plane, weight.
    let g_pr = mb.global_init(
        "p_r",
        Ty::I64,
        nparticles as u32,
        GlobalInit::I64s(
            (0..nparticles)
                .map(|i| ((init_f64(11, i as u64).abs() * mpsi as f64) as i64).min(mpsi - 1))
                .collect(),
        ),
    );
    let g_pt = mb.global_init(
        "p_theta",
        Ty::I64,
        nparticles as u32,
        GlobalInit::I64s(
            (0..nparticles).map(|i| (init_f64(13, i as u64).abs() * 64.0) as i64).collect(),
        ),
    );
    let g_pk = mb.global_init(
        "p_zeta",
        Ty::I64,
        nparticles as u32,
        GlobalInit::I64s(
            (0..nparticles)
                .map(|i| ((init_f64(17, i as u64).abs() * mzeta as f64) as i64).min(mzeta - 1))
                .collect(),
        ),
    );
    let g_pw = mb.global_init(
        "p_w",
        Ty::F64,
        nparticles as u32,
        GlobalInit::F64s((0..nparticles).map(|i| init_f64(19, i as u64)).collect()),
    );
    let g_checksum = mb.global_zeroed("checksum", Ty::F64, 2);

    let np = Value::i64(nparticles);
    let mzeta_c = Value::i64(mzeta);
    let igrid_in = Value::i64(0); // single-domain decomposition: offset 0

    // field_index(ri, ti, k) = (mzeta+1)*(igrid[ri] + (ti % mtheta[ri]) - igrid_in) + k
    let field_index =
        mb.define("field_index", vec![Ty::I64, Ty::I64, Ty::I64], Some(Ty::I64), |fb| {
            let (ri, ti, k) = (fb.arg(0), fb.arg(1), fb.arg(2));
            let gi = fb.load_elem(fb.global(g_igrid), ri, Ty::I64);
            let mt = fb.load_elem(fb.global(g_mtheta), ri, Ty::I64);
            let tmod = fb.srem(ti, mt, Ty::I64);
            let off = fb.add(gi, tmod, Ty::I64);
            let m1 = fb.add(mzeta_c, Value::i64(1), Ty::I64);
            let d = fb.sub(off, igrid_in, Ty::I64);
            let p = fb.mul(m1, d, Ty::I64);
            let idx = fb.add(p, k, Ty::I64);
            fb.ret(Some(idx));
        });

    // chargei(): deposit particle weights onto densityi (Figure 2 pattern),
    // with GTC's bounds assertion before the scatter.
    let chargei = mb.define("chargei", vec![], None, |fb| {
        fb.for_loop(Value::i64(0), np, |fb, i| {
            let ri = fb.load_elem(fb.global(g_pr), i, Ty::I64);
            let ti = fb.load_elem(fb.global(g_pt), i, Ty::I64);
            let k = fb.load_elem(fb.global(g_pk), i, Ty::I64);
            let w = fb.load_elem(fb.global(g_pw), i, Ty::F64);
            let idx = fb.call(field_index, vec![ri, ti, k]);
            // GTC-P's defensive bounds checks: SIGABRT on violation.
            let lo = fb.icmp(ICmp::Sge, idx, Value::i64(0));
            let hi = fb.icmp(ICmp::Slt, idx, Value::i64(field_len));
            let ok = fb.bin(tinyir::BinOp::And, lo, hi, Ty::I1);
            fb.assert_cond(ok);
            let cur = fb.load_elem(fb.global(g_density), idx, Ty::F64);
            let upd = fb.fadd(cur, w, Ty::F64);
            fb.store_elem(upd, fb.global(g_density), idx, Ty::F64);
        });
        fb.ret(None);
    });

    // smooth(): phitmp = relaxed densityi (stencil over the field, matching
    // the Figure 4 load/store pair phitmp[idx] -> phitmp[idx']).
    let smooth = mb.define("smooth", vec![], None, |fb| {
        let len = Value::i64(field_len);
        fb.for_loop(Value::i64(0), len, |fb, j| {
            let d = fb.load_elem(fb.global(g_density), j, Ty::F64);
            let j1 = fb.add(j, Value::i64(1), Ty::I64);
            let wrapped = fb.srem(j1, len, Ty::I64);
            let dn = fb.load_elem(fb.global(g_density), wrapped, Ty::F64);
            let sum = fb.fadd(d, dn, Ty::F64);
            let avg = fb.fmul(sum, Value::f64(0.5), Ty::F64);
            fb.store_elem(avg, fb.global(g_phitmp), j, Ty::F64);
        });
        fb.ret(None);
    });

    // pushi(): gather the field at each particle and advance its state.
    let pushi = mb.define("pushi", vec![], None, |fb| {
        fb.for_loop(Value::i64(0), np, |fb, i| {
            let ri = fb.load_elem(fb.global(g_pr), i, Ty::I64);
            let ti = fb.load_elem(fb.global(g_pt), i, Ty::I64);
            let k = fb.load_elem(fb.global(g_pk), i, Ty::I64);
            let idx = fb.call(field_index, vec![ri, ti, k]);
            let e = fb.load_elem(fb.global(g_phitmp), idx, Ty::F64);
            // Advance poloidal cell by a field-dependent kick (1 or 2).
            let kick = fb.fcmp(tinyir::FCmp::Ogt, e, Value::f64(0.0));
            let dti = fb.select(kick, Value::i64(2), Value::i64(1), Ty::I64);
            let ti2 = fb.add(ti, dti, Ty::I64);
            fb.store_elem(ti2, fb.global(g_pt), i, Ty::I64);
            // Weight evolves with the gathered field.
            let w = fb.load_elem(fb.global(g_pw), i, Ty::F64);
            let scaled = fb.fmul(e, Value::f64(0.01), Ty::F64);
            let w2 = fb.fadd(w, scaled, Ty::F64);
            fb.store_elem(w2, fb.global(g_pw), i, Ty::F64);
        });
        fb.ret(None);
    });

    // main(steps): the PIC cycle.
    mb.define("main", vec![Ty::I64], Some(Ty::F64), |fb| {
        fb.for_loop(Value::i64(0), fb.arg(0), |fb, _s| {
            fb.call(chargei, vec![]);
            fb.call(smooth, vec![]);
            fb.call(pushi, vec![]);
        });
        // checksum[0] = Σ field, checksum[1] = Σ |w|.
        let acc = fb.alloca(Ty::F64, 1);
        fb.store(Value::f64(0.0), acc);
        fb.for_loop(Value::i64(0), Value::i64(field_len), |fb, j| {
            let v = fb.load_elem(fb.global(g_phitmp), j, Ty::F64);
            let a = fb.load(acc, Ty::F64);
            let s = fb.fadd(a, v, Ty::F64);
            fb.store(s, acc);
        });
        let fsum = fb.load(acc, Ty::F64);
        fb.store_elem(fsum, fb.global(g_checksum), Value::i64(0), Ty::F64);
        fb.store(Value::f64(0.0), acc);
        fb.for_loop(Value::i64(0), np, |fb, i| {
            let w = fb.load_elem(fb.global(g_pw), i, Ty::F64);
            let aw = fb.intrinsic(Intrinsic::Fabs, vec![w]);
            let a = fb.load(acc, Ty::F64);
            let s = fb.fadd(a, aw, Ty::F64);
            fb.store(s, acc);
        });
        let wsum = fb.load(acc, Ty::F64);
        fb.store_elem(wsum, fb.global(g_checksum), Value::i64(1), Ty::F64);
        let _ = CastOp::Sext;
        fb.ret(Some(fsum));
    });

    let module = mb.finish();
    Workload::new(
        "GTC-P",
        module,
        vec![steps as u64],
        vec![("phitmp", field_len as u64 * 8), ("p_w", nparticles as u64 * 8), ("checksum", 16)],
    )
}

/// Campaign-scale default.
pub fn default() -> Workload {
    build(8, 2, 64, 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyir::interp::{layout_globals, Interp};
    use tinyir::mem::PagedMemory;
    use tinyir::verify::verify_module;

    #[test]
    fn gtcp_runs_and_deposits_charge() {
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
            200_000_000,
        );
        let fid = w.module.func_by_name("main").unwrap();
        let bits = interp.call(fid, &w.args).unwrap().unwrap();
        let field_sum = f64::from_bits(bits);
        assert!(field_sum.is_finite());
        assert_ne!(field_sum, 0.0, "deposition must accumulate charge");
    }
}
