//! Scalar clean-up passes: constant folding, local CSE, store-to-load
//! forwarding, phi simplification and dead-code elimination.
//!
//! Together with `mem2reg` these form the `-O1` pipeline. Store-to-load
//! forwarding is the transformation of the paper's Figure 8: eliminating a
//! redundant memory round-trip extends the coverage scope of downstream
//! recovery kernels because the forwarded computation becomes part of the
//! backward slice instead of terminating at a load.

use std::collections::HashMap;
use tinyir::interp::{const_bits, eval_bin, eval_cast, eval_fcmp, eval_icmp, float_of_bits};
use tinyir::{Callee, Function, InstrId, InstrKind, Module, Ty, Value};

/// The instructions one pass folds away, each with the value that replaces
/// it, indexed by instruction id.
struct Replacements {
    to: Vec<Option<Value>>,
    count: usize,
}

impl Replacements {
    fn new(f: &Function) -> Replacements {
        Replacements { to: vec![None; f.instrs.len()], count: 0 }
    }

    fn insert(&mut self, id: InstrId, v: Value) {
        let slot = &mut self.to[id.0 as usize];
        self.count += slot.is_none() as usize;
        *slot = Some(v);
    }

    /// Point every use of a replaced instruction at its replacement (one
    /// step, not chased), drop the replaced instructions from their blocks,
    /// and return how many there were.
    fn apply(self, f: &mut Function) -> usize {
        if self.count == 0 {
            return 0;
        }
        let to = &self.to;
        for instr in &mut f.instrs {
            instr.map_operands(|v| match v {
                Value::Instr(id) => to.get(id.0 as usize).copied().flatten().unwrap_or(v),
                other => other,
            });
        }
        for block in &mut f.blocks {
            block.instrs.retain(|i| to[i.0 as usize].is_none());
        }
        self.count
    }
}

/// Fold constant expressions. Returns the number of folds performed.
pub fn const_fold(module: &mut Module) -> usize {
    let mut total = 0;
    for f in &mut module.funcs {
        if f.is_decl {
            continue;
        }
        loop {
            let n = const_fold_function(f);
            total += n;
            if n == 0 {
                break;
            }
        }
    }
    total
}

fn const_value(bits: u64, ty: Ty) -> Value {
    if ty.is_float() {
        Value::ConstFloat(float_of_bits(bits, ty), ty)
    } else if ty.is_ptr() {
        if bits == 0 {
            Value::ConstNull
        } else {
            Value::ConstInt(bits as i64, Ty::I64)
        }
    } else {
        Value::ConstInt(tinyir::interp::sext_bits(bits, ty), ty)
    }
}

fn const_fold_function(f: &mut Function) -> usize {
    let mut replacement = Replacements::new(f);
    // Only block-resident instructions: the arena may hold orphans already
    // removed by earlier passes.
    let resident: Vec<InstrId> = f.blocks.iter().flat_map(|b| b.instrs.iter().copied()).collect();
    for iid in resident {
        let instr = &f.instrs[iid.0 as usize];
        match &instr.kind {
            InstrKind::Bin { op, lhs, rhs, ty } => {
                if let (Some(l), Some(r)) = (const_bits(*lhs), const_bits(*rhs)) {
                    if let Ok(bits) = eval_bin(*op, l, r, *ty) {
                        replacement.insert(iid, const_value(bits, *ty));
                    }
                }
            }
            InstrKind::Icmp { pred, lhs, rhs } => {
                if let (Some(l), Some(r)) = (const_bits(*lhs), const_bits(*rhs)) {
                    let ty = tinyir::module::value_ty(f, *lhs).unwrap_or(Ty::I64);
                    let b = eval_icmp(*pred, l, r, ty);
                    replacement.insert(iid, Value::ConstInt(b as i64, Ty::I1));
                }
            }
            InstrKind::Fcmp { pred, lhs, rhs } => {
                if let (Some(l), Some(r)) = (const_bits(*lhs), const_bits(*rhs)) {
                    let ty = tinyir::module::value_ty(f, *lhs).unwrap_or(Ty::F64);
                    let b = eval_fcmp(*pred, float_of_bits(l, ty), float_of_bits(r, ty));
                    replacement.insert(iid, Value::ConstInt(b as i64, Ty::I1));
                }
            }
            InstrKind::Cast { op, val, to } => {
                if let Some(v) = const_bits(*val) {
                    let from = tinyir::module::value_ty(f, *val).unwrap_or(Ty::I64);
                    let bits = eval_cast(*op, v, from, *to);
                    replacement.insert(iid, const_value(bits, *to));
                }
            }
            InstrKind::Select { cond, t, f: fv, .. } => {
                if let Some(c) = const_bits(*cond) {
                    replacement.insert(iid, if c & 1 != 0 { *t } else { *fv });
                }
            }
            _ => {}
        }
    }
    replacement.apply(f)
}

/// Simplify degenerate phis (single incoming, or all incomings identical).
pub fn simplify_phis(module: &mut Module) -> usize {
    let mut total = 0;
    for f in &mut module.funcs {
        if f.is_decl {
            continue;
        }
        loop {
            let mut replacement = Replacements::new(f);
            for &iid in f.blocks.iter().flat_map(|b| &b.instrs) {
                let instr = &f.instrs[iid.0 as usize];
                if let InstrKind::Phi { incomings, .. } = &instr.kind {
                    if incomings.is_empty() {
                        continue;
                    }
                    let first = incomings[0].1;
                    let same =
                        incomings.iter().all(|(_, v)| *v == first || *v == Value::Instr(iid));
                    if same && first != Value::Instr(iid) {
                        replacement.insert(iid, first);
                    }
                }
            }
            match replacement.apply(f) {
                0 => break,
                n => total += n,
            }
        }
    }
    total
}

/// Key identifying a pure computation for CSE.
#[derive(PartialEq, Eq, Hash)]
enum CseKey {
    Bin(tinyir::BinOp, Value, Value, Ty),
    Icmp(tinyir::ICmp, Value, Value),
    Fcmp(tinyir::FCmp, Value, Value),
    Cast(tinyir::CastOp, Value, Ty),
    Gep(Value, Value, u32),
    Select(Value, Value, Value),
}

fn cse_key(kind: &InstrKind) -> Option<CseKey> {
    Some(match kind {
        InstrKind::Bin { op, lhs, rhs, ty } => CseKey::Bin(*op, *lhs, *rhs, *ty),
        InstrKind::Icmp { pred, lhs, rhs } => CseKey::Icmp(*pred, *lhs, *rhs),
        InstrKind::Fcmp { pred, lhs, rhs } => CseKey::Fcmp(*pred, *lhs, *rhs),
        InstrKind::Cast { op, val, to } => CseKey::Cast(*op, *val, *to),
        InstrKind::Gep { base, index, elem_size } => CseKey::Gep(*base, *index, *elem_size),
        InstrKind::Select { cond, t, f, .. } => CseKey::Select(*cond, *t, *f),
        _ => return None,
    })
}

/// Local (per-block) common-subexpression elimination over pure
/// instructions. Returns the number of instructions eliminated.
pub fn local_cse(module: &mut Module) -> usize {
    let mut total = 0;
    for f in &mut module.funcs {
        if f.is_decl {
            continue;
        }
        let mut replacement = Replacements::new(f);
        // Keyed by operands, constants included, so std's keyed hasher stays.
        let mut seen: HashMap<CseKey, InstrId> = HashMap::new();
        for block in &f.blocks {
            seen.clear();
            for &iid in &block.instrs {
                if let Some(key) = cse_key(&f.instrs[iid.0 as usize].kind) {
                    match seen.get(&key) {
                        Some(&prev) => {
                            replacement.insert(iid, Value::Instr(prev));
                        }
                        None => {
                            seen.insert(key, iid);
                        }
                    }
                }
            }
        }
        total += replacement.apply(f);
    }
    total
}

/// Forward stored values to later loads of the *same SSA address* within a
/// block when no store or call intervenes (conservatively alias-safe).
/// Models the redundancy elimination of the paper's Figure 8.
pub fn store_load_forward(module: &mut Module) -> usize {
    let mut total = 0;
    for f in &mut module.funcs {
        if f.is_decl {
            continue;
        }
        let mut replacement = Replacements::new(f);
        // Address value -> available stored/loaded value. Keyed by program
        // constants too, so std's keyed hasher stays.
        let mut avail: HashMap<Value, Value> = HashMap::new();
        for block in &f.blocks {
            avail.clear();
            for &iid in &block.instrs {
                match &f.instrs[iid.0 as usize].kind {
                    InstrKind::Store { val, ptr } => {
                        // A store invalidates everything (no alias analysis),
                        // then makes its own value available.
                        avail.clear();
                        avail.insert(*ptr, *val);
                    }
                    InstrKind::Load { ptr, .. } => match avail.get(ptr) {
                        Some(&v) => {
                            replacement.insert(iid, v);
                        }
                        None => {
                            avail.insert(*ptr, Value::Instr(iid));
                        }
                    },
                    InstrKind::Call { .. } => avail.clear(),
                    _ => {}
                }
            }
        }
        total += replacement.apply(f);
    }
    total
}

/// Remove pure instructions whose results are unused. Returns the number of
/// instructions removed.
pub fn dce(module: &mut Module) -> usize {
    let mut total = 0;
    for f in &mut module.funcs {
        if f.is_decl {
            continue;
        }
        loop {
            let mut used: Vec<bool> = vec![false; f.instrs.len()];
            for (_, block) in f.block_iter() {
                for &iid in &block.instrs {
                    f.instr(iid).for_each_operand(|v| {
                        if let Value::Instr(d) = v {
                            used[d.0 as usize] = true;
                        }
                    });
                }
            }
            let mut removed = 0;
            for block in &mut f.blocks {
                block.instrs.retain(|&iid| {
                    let instr = &f.instrs[iid.0 as usize];
                    let pure = match &instr.kind {
                        InstrKind::Bin { .. }
                        | InstrKind::Icmp { .. }
                        | InstrKind::Fcmp { .. }
                        | InstrKind::Cast { .. }
                        | InstrKind::Select { .. }
                        | InstrKind::Gep { .. }
                        | InstrKind::Phi { .. }
                        | InstrKind::Load { .. }
                        | InstrKind::Alloca { .. } => true,
                        InstrKind::Call { callee: Callee::Intrinsic(i), .. } => i.is_simple_math(),
                        _ => false,
                    };
                    let keep = !pure || used[iid.0 as usize];
                    if !keep {
                        removed += 1;
                    }
                    keep
                });
            }
            total += removed;
            if removed == 0 {
                break;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyir::builder::ModuleBuilder;
    use tinyir::{ICmp, Instr};

    #[test]
    fn folds_constant_arithmetic() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("k", vec![], Some(Ty::I64), |fb| {
            let a = fb.add(Value::i64(2), Value::i64(3), Ty::I64);
            let b = fb.mul(a, Value::i64(4), Ty::I64);
            fb.ret(Some(b));
        });
        let mut m = mb.finish();
        let n = const_fold(&mut m);
        assert_eq!(n, 2);
        crate::tests::verify_compacted(&mut m);
        // Only the ret remains.
        assert_eq!(m.funcs[0].live_instr_count(), 1);
        match &m.funcs[0].instr(*m.funcs[0].blocks[0].instrs.last().unwrap()).kind {
            InstrKind::Ret { val: Some(Value::ConstInt(20, Ty::I64)) } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn folding_preserves_division_traps() {
        // sdiv by constant zero must NOT be folded away (it traps at
        // runtime); eval_bin returns Err and we keep the instruction.
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("k", vec![], Some(Ty::I64), |fb| {
            let a = fb.sdiv(Value::i64(1), Value::i64(0), Ty::I64);
            fb.ret(Some(a));
        });
        let mut m = mb.finish();
        assert_eq!(const_fold(&mut m), 0);
    }

    #[test]
    fn cse_merges_repeated_geps() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("f", vec![Ty::Ptr, Ty::I64], Some(Ty::F64), |fb| {
            let a = fb.load_elem(fb.arg(0), fb.arg(1), Ty::F64);
            let b = fb.load_elem(fb.arg(0), fb.arg(1), Ty::F64);
            let s = fb.fadd(a, b, Ty::F64);
            fb.ret(Some(s));
        });
        let mut m = mb.finish();
        let n_gep_before = count_kind(&m, |k| matches!(k, InstrKind::Gep { .. }));
        assert_eq!(n_gep_before, 2);
        local_cse(&mut m);
        crate::tests::verify_compacted(&mut m);
        assert_eq!(count_kind(&m, |k| matches!(k, InstrKind::Gep { .. })), 1);
    }

    #[test]
    fn store_load_forwarding_figure8() {
        // a-slot pattern: store x; load -> forwarded.
        let mut mb = ModuleBuilder::new("m", "m.c");
        let g = mb.global_zeroed("cell", Ty::I64, 1);
        mb.define("f", vec![Ty::I64], Some(Ty::I64), |fb| {
            let p = fb.gep_ty(fb.global(g), Value::i64(0), Ty::I64);
            fb.store(fb.arg(0), p);
            let v = fb.load(p, Ty::I64); // forwarded
            let w = fb.add(v, Value::i64(1), Ty::I64);
            fb.ret(Some(w));
        });
        let mut m = mb.finish();
        let n = store_load_forward(&mut m);
        assert_eq!(n, 1);
        crate::tests::verify_compacted(&mut m);
        assert_eq!(
            count_kind(&m, |k| matches!(k, InstrKind::Load { .. })),
            0,
            "load forwarded from store"
        );
    }

    #[test]
    fn forwarding_blocked_by_intervening_store() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let g = mb.global_zeroed("cells", Ty::I64, 4);
        mb.define("f", vec![Ty::I64, Ty::I64], Some(Ty::I64), |fb| {
            let p = fb.gep_ty(fb.global(g), Value::i64(0), Ty::I64);
            let q = fb.gep_ty(fb.global(g), fb.arg(1), Ty::I64);
            fb.store(fb.arg(0), p);
            fb.store(Value::i64(9), q); // may alias p
            let v = fb.load(p, Ty::I64); // must NOT be forwarded
            fb.ret(Some(v));
        });
        let mut m = mb.finish();
        assert_eq!(store_load_forward(&mut m), 0);
    }

    #[test]
    fn dce_removes_dead_chains() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("f", vec![Ty::I64], Some(Ty::I64), |fb| {
            let dead1 = fb.add(fb.arg(0), Value::i64(1), Ty::I64);
            let _dead2 = fb.mul(dead1, Value::i64(2), Ty::I64);
            fb.ret(Some(fb.arg(0)));
        });
        let mut m = mb.finish();
        let n = dce(&mut m);
        assert_eq!(n, 2, "whole dead chain removed across iterations");
        crate::tests::verify_compacted(&mut m);
    }

    #[test]
    fn dce_keeps_stores_and_nonpure_calls() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let g = mb.global_zeroed("out", Ty::I64, 1);
        mb.define("f", vec![Ty::I64], None, |fb| {
            fb.store_elem(fb.arg(0), fb.global(g), Value::i64(0), Ty::I64);
            let ok = fb.icmp(ICmp::Sge, fb.arg(0), Value::i64(0));
            fb.assert_cond(ok);
            fb.ret(None);
        });
        let mut m = mb.finish();
        dce(&mut m);
        assert!(count_kind(&m, |k| matches!(k, InstrKind::Store { .. })) == 1);
        assert!(count_kind(&m, |k| matches!(k, InstrKind::Call { .. })) == 1);
    }

    #[test]
    fn phi_simplification() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![Ty::I64], Some(Ty::I64));
        let e = f.entry();
        let bb1 = f.add_block("next");
        f.push_instr(e, Instr::new(InstrKind::Br { target: bb1 }));
        let phi = f.push_instr(
            bb1,
            Instr::new(InstrKind::Phi { incomings: vec![(e, Value::Arg(0))], ty: Ty::I64 }),
        );
        f.push_instr(bb1, Instr::new(InstrKind::Ret { val: Some(Value::Instr(phi)) }));
        m.add_func(f);
        assert_eq!(simplify_phis(&mut m), 1);
        crate::tests::verify_compacted(&mut m);
    }

    fn count_kind(m: &Module, pred: impl Fn(&InstrKind) -> bool) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| {
                f.blocks.iter().flat_map(|b| b.instrs.iter().map(|&i| &f.instrs[i.0 as usize].kind))
            })
            .filter(|k| pred(k))
            .count()
    }
}
