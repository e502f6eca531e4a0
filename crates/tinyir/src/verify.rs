//! Structural and type verification for TinyIR modules.
//!
//! The verifier enforces the invariants the rest of the pipeline (analysis,
//! optimisation, codegen, Armor extraction) assumes:
//!
//! * every block ends with exactly one terminator, which is its last
//!   instruction;
//! * phis appear only at the head of a block and have one incoming per CFG
//!   predecessor;
//! * every arena instruction sits in exactly one block, so instruction ids
//!   are dense;
//! * every value use is defined (SSA), arguments/globals are in range;
//! * operand types match the instruction's expectations;
//! * uses are dominated by definitions (checked over reachable blocks on
//!   the shared [`DomTree`]).

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::instr::{Callee, InstrKind};
use crate::module::{value_ty, Function, Module};
use crate::types::Ty;
use crate::value::{BlockId, InstrId, Value};

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the failure occurred.
    pub func: String,
    /// Description of the violated invariant.
    pub msg: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "verify error in @{}: {}", self.func, self.msg)
    }
}

impl std::error::Error for VerifyError {}

/// Verify every defined function in the module.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for f in &m.funcs {
        if !f.is_decl {
            verify_function(m, f)?;
        }
    }
    Ok(())
}

/// Verify a single function.
pub fn verify_function(m: &Module, f: &Function) -> Result<(), VerifyError> {
    let err = |msg: String| Err(VerifyError { func: f.name.clone(), msg });

    if f.blocks.is_empty() {
        return err("function has no blocks".into());
    }

    // -- terminator discipline & def collection ---------------------------
    // The block and position of each instruction a block lists.
    let mut place: Vec<Option<(BlockId, usize)>> = vec![None; f.instrs.len()];
    for (bid, block) in f.block_iter() {
        if block.instrs.is_empty() {
            return err(format!("{bid} is empty"));
        }
        let mut past_phis = false;
        for (pos, &iid) in block.instrs.iter().enumerate() {
            let Some(slot) = place.get_mut(iid.0 as usize) else {
                return err(format!("{bid} references out-of-range instr {iid:?}"));
            };
            if slot.replace((bid, pos)).is_some() {
                return err(format!("instruction {iid} appears twice"));
            }
            let instr = f.instr(iid);
            let is_last = pos + 1 == block.instrs.len();
            if instr.is_terminator() != is_last {
                return err(format!(
                    "{bid}: terminator placement wrong at position {pos} ({})",
                    crate::display::instr_body_str(&instr.kind)
                ));
            }
            // Phis must be a prefix of the block.
            if !matches!(instr.kind, InstrKind::Phi { .. }) {
                past_phis = true;
            } else if past_phis {
                return err(format!("{bid}: phi not at block head"));
            }
        }
    }
    if let Some(i) = place.iter().position(Option::is_none) {
        return err(format!("instruction %v{i} sits in no block"));
    }
    let place: Vec<(BlockId, usize)> = place.into_iter().flatten().collect();

    // -- CFG: successors in range before `Cfg::new` indexes by them --------
    for (bid, block) in f.block_iter() {
        let term = f.instr(*block.instrs.last().unwrap());
        if let Some(s) = term.successors().into_iter().find(|s| s.0 as usize >= f.blocks.len()) {
            return err(format!("{bid} branches to out-of-range {s}"));
        }
    }
    let cfg = Cfg::new(f);
    let reachable = |b: BlockId| cfg.reachable[b.0 as usize];

    // -- per-instruction operand checks ------------------------------------
    // These run for *every* block, reachable or not: downstream passes
    // (liveness, codegen, printing) walk all blocks, so ill-formed operands
    // in unreachable code would still index out of range or type-confuse
    // them. Only the dominance check below is restricted to reachable
    // blocks, where dominators are well-defined.
    for (bid, block) in f.block_iter() {
        let reach = reachable(bid);
        for (pos, &iid) in block.instrs.iter().enumerate() {
            let instr = f.instr(iid);
            for v in instr.operands() {
                match v {
                    Value::Instr(d) if d.0 as usize >= place.len() => {
                        return err(format!("{iid} uses undefined value {d}"));
                    }
                    Value::Arg(n) if n as usize >= f.params.len() => {
                        return err(format!("{iid} uses out-of-range arg %a{n}"));
                    }
                    Value::Global(g) if g.0 as usize >= m.globals.len() => {
                        return err(format!("{iid} uses out-of-range global @g{}", g.0));
                    }
                    _ => {}
                }
                // In unreachable blocks dominators are undefined, so the
                // dominance check below skips them; still reject the local
                // use-before-def shape, which needs only block positions.
                if let (false, Value::Instr(d)) = (reach, v) {
                    let (db, dpos) = place[d.0 as usize];
                    if db == bid && dpos >= pos {
                        return err(format!(
                            "{iid} in unreachable {bid} uses {d} before its definition"
                        ));
                    }
                }
            }
            check_types(m, f, iid)?;
            if let InstrKind::Phi { incomings, .. } = &instr.kind {
                if let Some((b, _)) = incomings.iter().find(|(b, _)| b.0 as usize >= f.blocks.len())
                {
                    return err(format!("{iid}: phi incoming from out-of-range {b}"));
                }
                let mut inc: Vec<BlockId> = incomings.iter().map(|(b, _)| *b).collect();
                inc.sort_unstable();
                if inc.windows(2).any(|w| w[0] == w[1]) {
                    return err(format!("{iid}: duplicate phi incoming blocks"));
                }
                // `Cfg::preds` is ascending, so `dedup` lists each once.
                let mut missing = cfg.preds[bid.0 as usize].to_vec();
                missing.dedup();
                missing.retain(|p| inc.binary_search(p).is_err());
                if !missing.is_empty() {
                    return err(format!("{iid}: phi missing incoming for {missing:?}"));
                }
            }
        }
    }

    // -- dominance of uses --------------------------------------------------
    let dt = DomTree::new(&cfg);
    for (bid, block) in f.block_iter() {
        if !reachable(bid) {
            continue;
        }
        for (pos, &iid) in block.instrs.iter().enumerate() {
            let instr = f.instr(iid);
            if let InstrKind::Phi { incomings, .. } = &instr.kind {
                // A phi use must be dominated by its def at the end of the
                // incoming block.
                for (inb, v) in incomings {
                    if let (true, Value::Instr(d)) = (reachable(*inb), v) {
                        let (db, _) = place[d.0 as usize];
                        if !dt.dominates(db, *inb) {
                            return err(format!(
                                "phi {iid}: incoming {v:?} from {inb} not dominated by def in {db}"
                            ));
                        }
                    }
                }
                continue;
            }
            for v in instr.operands() {
                if let Value::Instr(d) = v {
                    let (db, dpos) = place[d.0 as usize];
                    if db == bid {
                        if dpos >= pos {
                            return err(format!("{iid} uses {d} before its definition"));
                        }
                    } else if !dt.dominates(db, bid) {
                        return err(format!(
                            "{iid} in {bid} uses {d} defined in non-dominating {db}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

fn check_types(m: &Module, f: &Function, iid: InstrId) -> Result<(), VerifyError> {
    let err = |msg: String| Err(VerifyError { func: f.name.clone(), msg });
    let instr = f.instr(iid);
    let ty_of = |v: Value| value_ty(f, v);
    match &instr.kind {
        InstrKind::Load { ptr, .. } | InstrKind::Store { ptr, .. }
            if ty_of(*ptr) != Some(Ty::Ptr) =>
        {
            return err(format!("{iid}: memory address operand is not a pointer"));
        }
        InstrKind::Gep { base, index, elem_size } => {
            if ty_of(*base) != Some(Ty::Ptr) {
                return err(format!("{iid}: gep base is not a pointer"));
            }
            if !ty_of(*index).map(Ty::is_int).unwrap_or(false) {
                return err(format!("{iid}: gep index is not an integer"));
            }
            if *elem_size == 0 {
                return err(format!("{iid}: gep elem_size is zero"));
            }
        }
        InstrKind::Bin { op, lhs, rhs, ty } => {
            if op.is_float() != ty.is_float() {
                return err(format!("{iid}: binop float-ness mismatch with type {ty}"));
            }
            for v in [lhs, rhs] {
                if let Some(t) = ty_of(*v) {
                    if t != *ty && !(t.is_ptr() && ty.is_int()) {
                        return err(format!("{iid}: operand type {t} != result type {ty}"));
                    }
                }
            }
        }
        InstrKind::Icmp { lhs, rhs, .. } => {
            let (a, b) = (ty_of(*lhs), ty_of(*rhs));
            if let (Some(a), Some(b)) = (a, b) {
                if a.is_float() || b.is_float() {
                    return err(format!("{iid}: icmp on float operands"));
                }
                if a != b {
                    return err(format!("{iid}: icmp operand types differ ({a} vs {b})"));
                }
            }
        }
        InstrKind::Fcmp { lhs, rhs, .. } => {
            for v in [lhs, rhs] {
                if !ty_of(*v).map(Ty::is_float).unwrap_or(false) {
                    return err(format!("{iid}: fcmp on non-float operand"));
                }
            }
        }
        InstrKind::CondBr { cond, .. } if ty_of(*cond) != Some(Ty::I1) => {
            return err(format!("{iid}: condbr condition is not i1"));
        }
        InstrKind::Call { callee, args, ret_ty } => match callee {
            Callee::Func(fid) => {
                if fid.0 as usize >= m.funcs.len() {
                    return err(format!("{iid}: call to out-of-range function"));
                }
                let callee_f = m.func(*fid);
                if callee_f.params.len() != args.len() {
                    return err(format!(
                        "{iid}: call arity {} != {} for @{}",
                        args.len(),
                        callee_f.params.len(),
                        callee_f.name
                    ));
                }
                if callee_f.ret_ty != *ret_ty {
                    return err(format!("{iid}: call return type mismatch"));
                }
            }
            Callee::Intrinsic(i) => {
                if i.arity() != args.len() {
                    return err(format!("{iid}: intrinsic arity mismatch"));
                }
            }
        },
        InstrKind::Ret { val } => match (f.ret_ty, val) {
            (Some(rt), Some(v)) => {
                if let Some(t) = ty_of(*v) {
                    if t != rt {
                        return err(format!("{iid}: return type {t} != {rt}"));
                    }
                }
            }
            (None, None) => {}
            _ => return err(format!("{iid}: return value presence mismatch")),
        },
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::{BinOp, Instr};

    #[test]
    fn builder_output_verifies() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("f", vec![Ty::Ptr, Ty::I64], Some(Ty::F64), |fb| {
            let acc = fb.alloca(Ty::F64, 1);
            fb.store(Value::f64(0.0), acc);
            fb.for_loop(Value::i64(0), fb.arg(1), |fb, iv| {
                let x = fb.load_elem(fb.arg(0), iv, Ty::F64);
                let a = fb.load(acc, Ty::F64);
                let s = fb.fadd(a, x, Ty::F64);
                fb.store(s, acc);
            });
            let r = fb.load(acc, Ty::F64);
            fb.ret(Some(r));
        });
        let m = mb.finish();
        verify_module(&m).unwrap();
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![], None);
        let e = f.entry();
        f.push_instr(e, Instr::new(InstrKind::Alloca { elem_ty: Ty::I64, count: 1 }));
        m.add_func(f);
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_use_before_def() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![], Some(Ty::I64));
        let e = f.entry();
        // %v0 = add %v1, 1   (uses %v1 before it's defined)
        f.push_instr(
            e,
            Instr::new(InstrKind::Bin {
                op: BinOp::Add,
                lhs: Value::Instr(InstrId(1)),
                rhs: Value::i64(1),
                ty: Ty::I64,
            }),
        );
        f.push_instr(
            e,
            Instr::new(InstrKind::Bin {
                op: BinOp::Add,
                lhs: Value::i64(1),
                rhs: Value::i64(1),
                ty: Ty::I64,
            }),
        );
        f.push_instr(e, Instr::new(InstrKind::Ret { val: Some(Value::Instr(InstrId(0))) }));
        m.add_func(f);
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("before its definition"), "{err}");
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![Ty::F64], Some(Ty::F64));
        let e = f.entry();
        // fadd with integer type annotation.
        f.push_instr(
            e,
            Instr::new(InstrKind::Bin {
                op: BinOp::FAdd,
                lhs: Value::Arg(0),
                rhs: Value::Arg(0),
                ty: Ty::I64,
            }),
        );
        f.push_instr(e, Instr::new(InstrKind::Ret { val: Some(Value::Arg(0)) }));
        m.add_func(f);
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_bad_phi() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![], Some(Ty::I64));
        let e = f.entry();
        let bb1 = f.add_block("next");
        f.push_instr(e, Instr::new(InstrKind::Br { target: bb1 }));
        // Phi with no incoming for the entry predecessor.
        f.push_instr(bb1, Instr::new(InstrKind::Phi { incomings: vec![], ty: Ty::I64 }));
        f.push_instr(bb1, Instr::new(InstrKind::Ret { val: Some(Value::i64(0)) }));
        m.add_func(f);
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("phi missing incoming"), "{err}");
    }

    #[test]
    fn rejects_phi_incoming_from_out_of_range_block() {
        // bb0: condbr 1, bb1, bb2; bb1: br bb2;
        // bb2: phi [bb0: 1], [bb1: 2], [bb99: 3] — every predecessor has
        // its incoming, and the extra one names no block.
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![], Some(Ty::I64));
        let (e, bb1, bb2) = (f.entry(), f.add_block("a"), f.add_block("b"));
        let cond = Value::ConstInt(1, Ty::I1);
        f.push_instr(e, Instr::new(InstrKind::CondBr { cond, then_bb: bb1, else_bb: bb2 }));
        f.push_instr(bb1, Instr::new(InstrKind::Br { target: bb2 }));
        let incomings =
            vec![(e, Value::i64(1)), (bb1, Value::i64(2)), (BlockId(99), Value::i64(3))];
        let phi = f.push_instr(bb2, Instr::new(InstrKind::Phi { incomings, ty: Ty::I64 }));
        f.push_instr(bb2, Instr::new(InstrKind::Ret { val: Some(Value::Instr(phi)) }));
        m.add_func(f);
        let err = verify_module(&m).unwrap_err();
        assert_eq!(err.msg, "%v2: phi incoming from out-of-range bb99");
    }

    #[test]
    fn rejects_an_instruction_no_block_lists() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![], Some(Ty::I64));
        let e = f.entry();
        let one = Value::i64(1);
        let add = Instr::new(InstrKind::Bin { op: BinOp::Add, lhs: one, rhs: one, ty: Ty::I64 });
        f.push_instr(e, add);
        f.push_instr(e, Instr::new(InstrKind::Ret { val: Some(one) }));
        f.blocks[0].instrs.remove(0);
        m.add_func(f);
        let err = verify_module(&m).unwrap_err();
        assert_eq!(err.msg, "instruction %v0 sits in no block");
        m.funcs[0].compact();
        verify_module(&m).unwrap();
    }

    /// Build `f() -> i64` with a reachable entry that just returns, plus one
    /// unreachable block whose instructions come from `fill`.
    fn with_unreachable_block(fill: impl FnOnce(&mut Function, BlockId)) -> Module {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![Ty::I64], Some(Ty::I64));
        let e = f.entry();
        f.push_instr(e, Instr::new(InstrKind::Ret { val: Some(Value::i64(0)) }));
        let dead = f.add_block("dead");
        fill(&mut f, dead);
        m.add_func(f);
        m
    }

    #[test]
    fn accepts_wellformed_unreachable_block() {
        let m = with_unreachable_block(|f, bb| {
            f.push_instr(
                bb,
                Instr::new(InstrKind::Bin {
                    op: BinOp::Add,
                    lhs: Value::Arg(0),
                    rhs: Value::i64(1),
                    ty: Ty::I64,
                }),
            );
            f.push_instr(bb, Instr::new(InstrKind::Ret { val: Some(Value::i64(1)) }));
        });
        verify_module(&m).unwrap();
    }

    #[test]
    fn rejects_out_of_range_arg_in_unreachable_block() {
        // Before the all-blocks operand check this passed verification and
        // then panicked Liveness::compute, which walks every block and
        // indexes arguments by `n_instrs + argno`.
        let m = with_unreachable_block(|f, bb| {
            f.push_instr(
                bb,
                Instr::new(InstrKind::Bin {
                    op: BinOp::Add,
                    lhs: Value::Arg(7),
                    rhs: Value::i64(1),
                    ty: Ty::I64,
                }),
            );
            f.push_instr(bb, Instr::new(InstrKind::Ret { val: Some(Value::i64(1)) }));
        });
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("out-of-range arg"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_global_in_unreachable_block() {
        let m = with_unreachable_block(|f, bb| {
            f.push_instr(
                bb,
                Instr::new(InstrKind::Load { ptr: Value::Global(crate::GlobalId(3)), ty: Ty::I64 }),
            );
            f.push_instr(bb, Instr::new(InstrKind::Ret { val: Some(Value::i64(1)) }));
        });
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("out-of-range global"), "{err}");
    }

    #[test]
    fn rejects_use_before_def_in_unreachable_block() {
        let m = with_unreachable_block(|f, bb| {
            // %v1 = add %v2, 1 ; %v2 = add 1, 1 — same-block use before def.
            f.push_instr(
                bb,
                Instr::new(InstrKind::Bin {
                    op: BinOp::Add,
                    lhs: Value::Instr(InstrId(2)),
                    rhs: Value::i64(1),
                    ty: Ty::I64,
                }),
            );
            f.push_instr(
                bb,
                Instr::new(InstrKind::Bin {
                    op: BinOp::Add,
                    lhs: Value::i64(1),
                    rhs: Value::i64(1),
                    ty: Ty::I64,
                }),
            );
            f.push_instr(bb, Instr::new(InstrKind::Ret { val: Some(Value::i64(1)) }));
        });
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("before its definition"), "{err}");
    }

    #[test]
    fn rejects_type_mismatch_in_unreachable_block() {
        let m = with_unreachable_block(|f, bb| {
            f.push_instr(
                bb,
                Instr::new(InstrKind::Bin {
                    op: BinOp::FAdd,
                    lhs: Value::i64(1),
                    rhs: Value::i64(1),
                    ty: Ty::I64,
                }),
            );
            f.push_instr(bb, Instr::new(InstrKind::Ret { val: Some(Value::i64(1)) }));
        });
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("float-ness"), "{err}");
    }

    #[test]
    fn rejects_duplicate_phi_incomings_in_unreachable_block() {
        let m = with_unreachable_block(|f, bb| {
            f.push_instr(
                bb,
                Instr::new(InstrKind::Phi {
                    incomings: vec![(BlockId(0), Value::i64(1)), (BlockId(0), Value::i64(2))],
                    ty: Ty::I64,
                }),
            );
            f.push_instr(bb, Instr::new(InstrKind::Ret { val: Some(Value::i64(1)) }));
        });
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("duplicate phi incoming"), "{err}");
    }

    #[test]
    fn rejects_non_pointer_memory_operand() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![Ty::I64], Some(Ty::I64));
        let e = f.entry();
        f.push_instr(e, Instr::new(InstrKind::Load { ptr: Value::Arg(0), ty: Ty::I64 }));
        f.push_instr(e, Instr::new(InstrKind::Ret { val: Some(Value::Instr(InstrId(0))) }));
        m.add_func(f);
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("not a pointer"), "{err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 512, ..Default::default() })]

        /// Over random CFGs whose blocks use each other's definitions,
        /// in plain operands and in phi incomings, `verify_module` accepts
        /// exactly when every use in a reachable block is dominated by its
        /// definition, by the definition of dominance (deleting the
        /// definition's block cuts the use's block off from the entry), and
        /// no use in an unreachable block precedes its definition there.
        #[test]
        fn accepts_exactly_the_dominated_uses(
            succs in crate::dom::tests::random_succs(),
            // Per block: a phi or none, the source of one use, and the
            // source of the phi's incoming from each predecessor. A source
            // names the block whose definition it reads, or (past the
            // last block) a constant.
            plans in proptest::collection::vec(
                (proptest::prelude::any::<bool>(), 0usize..13, proptest::collection::vec(0usize..13, 12..13)),
                12..13,
            ),
        ) {
            let n = succs.len();
            let dom = crate::dom::tests::brute_dominance(&succs);
            let succs = &succs;
            let preds = |b: usize| (0..n).filter(move |&p| succs[p].contains(&b));

            // Block `b` holds [phi], its definition `%v{n + b}`, a use, and
            // the terminator `cfg_function` put there (`%v{b}`).
            let mut f = crate::dom::tests::cfg_function(succs);
            let src = |k: usize| if k < n { Value::Instr(InstrId((n + k) as u32)) } else { Value::i64(7) };
            let bin = |lhs| Instr::new(InstrKind::Bin { op: BinOp::Add, lhs, rhs: Value::i64(1), ty: Ty::I64 });
            f.instrs.extend((0..n).map(|b| bin(Value::i64(b as i64))));
            let mut ok = true;
            for (b, (has_phi, use_src, phi_srcs)) in plans.iter().take(n).enumerate() {
                let mut instrs = Vec::new();
                if *has_phi {
                    let incomings = preds(b).zip(phi_srcs).map(|(p, &k)| (BlockId(p as u32), src(k)));
                    instrs.push(InstrId(f.instrs.len() as u32));
                    f.instrs.push(Instr::new(InstrKind::Phi { incomings: incomings.collect(), ty: Ty::I64 }));
                    // An unreachable block is checked for local order only,
                    // which a phi reading its own block's definition breaks.
                    ok &= preds(b).zip(phi_srcs).all(|(p, &k)| match (dom[b][b], dom[p][p]) {
                        (false, _) => k != b,
                        (true, false) => true,
                        (true, true) => k >= n || dom[k][p],
                    });
                }
                instrs.extend([InstrId((n + b) as u32), InstrId(f.instrs.len() as u32), InstrId(b as u32)]);
                f.instrs.push(bin(src(*use_src)));
                f.blocks[b].instrs = instrs;
                ok &= !dom[b][b] || *use_src >= n || dom[*use_src][b];
            }
            let mut m = Module::new("m");
            m.add_func(f);
            match verify_module(&m) {
                Ok(()) => proptest::prop_assert!(ok, "accepted a use its definition does not dominate: {:?}", succs),
                Err(e) => proptest::prop_assert!(
                    !ok && ["not dominated", "non-dominating", "before its"].iter().any(|w| e.msg.contains(w)),
                    "{} in {:?}", e, succs
                ),
            }
        }
    }
}
