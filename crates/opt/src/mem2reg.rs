//! Promotion of stack slots to SSA registers (LLVM's `mem2reg`).
//!
//! This is the pass that creates the paper's `-O0` vs `-O1` behavioural
//! split for CARE:
//!
//! * under `-O0` every local lives in a stack slot, so its value is always
//!   retrievable from memory at recovery time;
//! * after promotion, induction variables and accumulators become SSA values
//!   that the backend keeps in registers and updates **in place** — if a
//!   fault corrupts one of those registers, Safeguard fetches the corrupted
//!   value as a kernel parameter and recovery fails (paper §5.2/§5.6:
//!   HPCCG's 35 % coverage drop at `-O1`);
//! * conversely, promotion deletes the redundant store/load pairs of
//!   Figure 8 case 2, *extending* recovery-kernel coverage scope (miniMD's
//!   +7 %).

use analysis::{Cfg, DomTree};
use tinyir::{BlockId, Function, Instr, InstrId, InstrKind, Module, Ty, Value};

/// Run mem2reg on every defined function. Returns the number of promoted
/// allocas.
pub fn run(module: &mut Module) -> usize {
    let mut promoted = 0;
    for f in &mut module.funcs {
        if !f.is_decl {
            promoted += promote_function(f);
        }
    }
    promoted
}

/// Compute dominance frontiers from a dominator tree, each in ascending
/// block order.
fn dominance_frontiers(cfg: &Cfg, dt: &DomTree) -> Vec<Vec<BlockId>> {
    let n = cfg.len();
    let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    for b in 0..n {
        let bid = BlockId(b as u32);
        if cfg.preds[b].len() < 2 {
            continue;
        }
        let Some(idom_b) = dt.idom[b] else { continue };
        for &p in &cfg.preds[b] {
            let mut runner = p;
            while runner != idom_b {
                // `b` joins frontiers only in this iteration, so a repeat
                // would be the last entry.
                let frontier = &mut df[runner.0 as usize];
                if frontier.last() != Some(&bid) {
                    frontier.push(bid);
                }
                match dt.idom[runner.0 as usize] {
                    Some(next) => runner = next,
                    None => break,
                }
            }
        }
    }
    df
}

/// The promotable allocas, in arena order: block-resident, scalar
/// (count == 1), and used only as the direct pointer of loads/stores (never
/// stored *as a value*, passed to a call, or offset by a gep).
fn promotable_allocas(f: &Function) -> Vec<InstrId> {
    let mut ok = vec![false; f.instrs.len()];
    for (_, block) in f.block_iter() {
        for &iid in &block.instrs {
            ok[iid.0 as usize] = matches!(f.instr(iid).kind, InstrKind::Alloca { count: 1, .. });
        }
    }
    for (_, block) in f.block_iter() {
        for &iid in &block.instrs {
            let instr = f.instr(iid);
            instr.for_each_operand(|v| {
                let Value::Instr(a) = v else { return };
                let allowed = match &instr.kind {
                    InstrKind::Load { ptr, .. } => *ptr == v,
                    InstrKind::Store { ptr, val } => *ptr == v && *val != v,
                    _ => false,
                };
                if !allowed {
                    if let Some(ok) = ok.get_mut(a.0 as usize) {
                        *ok = false;
                    }
                }
            });
        }
    }
    (0..f.instrs.len() as u32).map(InstrId).filter(|a| ok[a.0 as usize]).collect()
}

fn promote_function(f: &mut Function) -> usize {
    let cfg = Cfg::new(f);
    let dt = DomTree::new(&cfg);
    let df = dominance_frontiers(&cfg, &dt);

    let allocas = promotable_allocas(f);
    if allocas.is_empty() {
        return 0;
    }
    // Alloca id -> its index in `allocas`.
    let mut ordinal: Vec<Option<usize>> = vec![None; f.instrs.len()];
    for (i, a) in allocas.iter().enumerate() {
        ordinal[a.0 as usize] = Some(i);
    }
    let promoted = |v: Value| match v {
        Value::Instr(a) => ordinal.get(a.0 as usize).copied().flatten(),
        _ => None,
    };
    let elem_ty: Vec<Ty> = allocas
        .iter()
        .map(|&a| match f.instr(a).kind {
            InstrKind::Alloca { elem_ty, .. } => elem_ty,
            _ => unreachable!(),
        })
        .collect();

    // -- phi insertion at iterated dominance frontiers ----------------------
    // The blocks storing to each alloca, in block order.
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); allocas.len()];
    for (bid, block) in f.block_iter() {
        for &iid in &block.instrs {
            if let InstrKind::Store { ptr, .. } = f.instr(iid).kind {
                if let Some(o) = promoted(ptr) {
                    def_blocks[o].push(bid);
                }
            }
        }
    }
    // phis_at[block] = (alloca ordinal, phi instr id) for the phis inserted
    // there; has_phi[block] = 1 + the last ordinal given a phi there.
    let mut phis_at: Vec<Vec<(usize, InstrId)>> = vec![Vec::new(); cfg.len()];
    let mut has_phi: Vec<usize> = vec![0; cfg.len()];
    for (o, &a) in allocas.iter().enumerate() {
        let mut work = std::mem::take(&mut def_blocks[o]);
        while let Some(b) = work.pop() {
            for &y in &df[b.0 as usize] {
                if has_phi[y.0 as usize] != o + 1 {
                    has_phi[y.0 as usize] = o + 1;
                    // Create an empty phi; incomings filled during renaming.
                    let loc = f.instr(a).loc;
                    let id = InstrId(f.instrs.len() as u32);
                    f.instrs.push(Instr {
                        kind: InstrKind::Phi { incomings: vec![], ty: elem_ty[o] },
                        loc,
                    });
                    f.blocks[y.0 as usize].instrs.insert(0, id);
                    phis_at[y.0 as usize].push((o, id));
                    work.push(y);
                }
            }
        }
    }

    // -- renaming over the dominator tree -----------------------------------
    // Promoted load -> the value it reads.
    let mut replacement: Vec<Option<Value>> = vec![None; f.instrs.len()];
    let mut to_remove: Vec<bool> = vec![false; f.instrs.len()];
    // Uninitialised reads yield a zero of the right type, matching the
    // zero-filled simulated stack.
    let mut stacks: Vec<Vec<Value>> = elem_ty
        .iter()
        .map(|&t| {
            vec![match t {
                Ty::F32 => Value::ConstFloat(0.0, Ty::F32),
                Ty::F64 => Value::ConstFloat(0.0, Ty::F64),
                Ty::Ptr => Value::ConstNull,
                t => Value::ConstInt(0, t),
            }]
        })
        .collect();

    // Iterative DFS; an unwind pops one value per alloca ordinal listed.
    // The blocks the entry does not reach come after it, each on its own
    // with every slot at its zero: their loads and stores go too, and a
    // phi they feed gets its incoming.
    enum Step {
        Visit(BlockId),
        Unwind(Vec<usize>),
    }
    let unreachable = (0..cfg.len()).rev().filter(|&b| !cfg.reachable[b]);
    let mut stack: Vec<Step> = unreachable.map(|b| Step::Visit(BlockId(b as u32))).collect();
    stack.push(Step::Visit(f.entry()));
    while let Some(step) = stack.pop() {
        match step {
            Step::Unwind(pushed) => {
                for o in pushed {
                    stacks[o].pop();
                }
            }
            Step::Visit(b) => {
                let mut pushed: Vec<usize> = Vec::new();
                // Phis inserted for allocas at this block head define values.
                for &(o, pid) in &phis_at[b.0 as usize] {
                    stacks[o].push(Value::Instr(pid));
                    pushed.push(o);
                }
                for &iid in &f.blocks[b.0 as usize].instrs {
                    match f.instr(iid).kind {
                        InstrKind::Load { ptr, .. } => {
                            if let Some(o) = promoted(ptr) {
                                replacement[iid.0 as usize] = stacks[o].last().copied();
                                to_remove[iid.0 as usize] = true;
                            }
                        }
                        InstrKind::Store { ptr, val } => {
                            if let Some(o) = promoted(ptr) {
                                stacks[o].push(val);
                                pushed.push(o);
                                to_remove[iid.0 as usize] = true;
                            }
                        }
                        _ => {}
                    }
                }
                // Fill successor phis.
                for &s in &cfg.succs[b.0 as usize] {
                    for &(o, pid) in &phis_at[s.0 as usize] {
                        let cur = *stacks[o].last().unwrap();
                        if let InstrKind::Phi { incomings, .. } = &mut f.instr_mut(pid).kind {
                            incomings.push((b, cur));
                        }
                    }
                }
                stack.push(Step::Unwind(pushed));
                for &c in dt.children[b.0 as usize].iter().rev() {
                    stack.push(Step::Visit(c));
                }
            }
        }
    }

    // -- apply replacements (resolving chains) -------------------------------
    let resolve = |mut v: Value| -> Value {
        let mut guard = 0;
        while let Value::Instr(id) = v {
            match replacement.get(id.0 as usize).copied().flatten() {
                Some(next) => {
                    v = next;
                    guard += 1;
                    assert!(guard < 1_000_000, "replacement cycle");
                }
                None => break,
            }
        }
        v
    };
    for instr in &mut f.instrs {
        instr.map_operands(resolve);
    }

    // -- delete promoted instructions ----------------------------------------
    for &a in &allocas {
        to_remove[a.0 as usize] = true;
    }
    for block in &mut f.blocks {
        block.instrs.retain(|i| !to_remove[i.0 as usize]);
    }
    allocas.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyir::builder::ModuleBuilder;
    use tinyir::interp::{layout_globals, Interp};
    use tinyir::mem::PagedMemory;

    fn run_fn(m: &Module, name: &str, args: &[u64]) -> Option<u64> {
        let mut mem = PagedMemory::new();
        let globals = layout_globals(m, &mut mem, 0x1000_0000);
        let mut i = Interp::new(
            m,
            &mut mem,
            &globals,
            0x7f00_0000_0000,
            0x7f00_0100_0000,
            0x6000_0000_0000,
            1_000_000_000,
        );
        i.call(m.func_by_name(name).unwrap(), args).unwrap()
    }

    fn accumulator_module() -> Module {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("sumsq", vec![Ty::I64], Some(Ty::I64), |fb| {
            let acc = fb.alloca(Ty::I64, 1);
            fb.store(Value::i64(0), acc);
            fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
                let sq = fb.mul(iv, iv, Ty::I64);
                let a = fb.load(acc, Ty::I64);
                let s = fb.add(a, sq, Ty::I64);
                fb.store(s, acc);
            });
            let r = fb.load(acc, Ty::I64);
            fb.ret(Some(r));
        });
        mb.finish()
    }

    #[test]
    fn promotes_accumulator_and_preserves_semantics() {
        let mut m = accumulator_module();
        let before = run_fn(&m, "sumsq", &[10]);
        let n = run(&mut m);
        assert_eq!(n, 1, "one alloca promoted");
        crate::tests::verify_compacted(&mut m);
        let after = run_fn(&m, "sumsq", &[10]);
        assert_eq!(before, after);
        // No loads/stores remain: the accumulator is pure SSA now.
        assert_eq!(m.funcs[0].mem_access_instrs().len(), 0);
        // A new phi must exist in the loop header (accumulator) besides the
        // induction variable phi.
        let phis = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|&&i| matches!(m.funcs[0].instr(i).kind, InstrKind::Phi { .. }))
            .count();
        assert_eq!(phis, 2);
    }

    #[test]
    fn diamond_gets_join_phi() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("absv", vec![Ty::I64], Some(Ty::I64), |fb| {
            let out = fb.alloca(Ty::I64, 1);
            let neg = fb.icmp(tinyir::ICmp::Slt, fb.arg(0), Value::i64(0));
            fb.if_then_else(
                neg,
                |fb| {
                    let n = fb.sub(Value::i64(0), fb.arg(0), Ty::I64);
                    fb.store(n, out);
                },
                |fb| fb.store(fb.arg(0), out),
            );
            let r = fb.load(out, Ty::I64);
            fb.ret(Some(r));
        });
        let mut m = mb.finish();
        assert_eq!(run_fn(&m, "absv", &[(-5i64) as u64]), Some(5));
        run(&mut m);
        crate::tests::verify_compacted(&mut m);
        assert_eq!(run_fn(&m, "absv", &[(-5i64) as u64]), Some(5));
        assert_eq!(run_fn(&m, "absv", &[7]), Some(7));
        assert_eq!(m.funcs[0].mem_access_instrs().len(), 0);
    }

    #[test]
    fn escaped_allocas_are_not_promoted() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let callee = mb.declare("esc", vec![Ty::Ptr], None);
        mb.define("escuser", vec![], Some(Ty::I64), |fb| {
            let slot = fb.alloca(Ty::I64, 1);
            fb.store(Value::i64(3), slot);
            fb.call(callee, vec![slot]);
            let r = fb.load(slot, Ty::I64);
            fb.ret(Some(r));
        });
        let mut m = mb.finish();
        assert_eq!(run(&mut m), 0, "escaped alloca must stay in memory");
    }

    #[test]
    fn array_allocas_are_not_promoted() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("arr", vec![], Some(Ty::I64), |fb| {
            let a = fb.alloca(Ty::I64, 8);
            fb.store_elem(Value::i64(9), a, Value::i64(2), Ty::I64);
            let r = fb.load_elem(a, Value::i64(2), Ty::I64);
            fb.ret(Some(r));
        });
        let mut m = mb.finish();
        assert_eq!(run(&mut m), 0);
        assert_eq!(run_fn(&m, "arr", &[]), Some(9));
    }

    #[test]
    fn uninitialised_read_becomes_zero() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("uninit", vec![], Some(Ty::I64), |fb| {
            let slot = fb.alloca(Ty::I64, 1);
            let r = fb.load(slot, Ty::I64);
            fb.ret(Some(r));
        });
        let mut m = mb.finish();
        run(&mut m);
        crate::tests::verify_compacted(&mut m);
        assert_eq!(run_fn(&m, "uninit", &[]), Some(0));
    }

    /// `%v0` is stored on both arms of a diamond and read at the join;
    /// `bb4`, which nothing reaches, reads it, stores to it and branches to
    /// the join too.
    const UNREACHABLE_SLOT_USER: &str = r#"module "dead"
file 0 "dead.c"
global @g0 "out" i64 x 1 zero
func @main(i64 %a0) -> i64 {
bb0:
  %v0 = alloca i64, 1
  %v1 = icmp slt %a0, i64 0
  condbr %v1, bb1, bb2
bb1:
  store i64 7, %v0
  br bb3
bb2:
  store %a0, %v0
  br bb3
bb3:
  %v2 = load i64, %v0
  store %v2, @g0
  ret %v2
bb4:
  %v3 = load i64, %v0
  %v4 = add i64 %v3, i64 1
  store %v4, %v0
  br bb3
}
"#;

    #[test]
    fn a_slot_used_in_an_unreachable_block_is_promoted_there_too() {
        let mut m = tinyir::parser::parse_module(UNREACHABLE_SLOT_USER).unwrap();
        tinyir::verify::verify_module(&m).unwrap();
        assert_eq!(run(&mut m), 1);
        crate::tests::verify_compacted(&mut m);
        // Only the store to @g0 is left; the join's phi takes `bb4`'s
        // store, which adds one to the slot's zero.
        let f = &m.funcs[0];
        assert_eq!(f.mem_access_instrs().len(), 1);
        let phi = f.blocks[3].instrs[0];
        let InstrKind::Phi { incomings, .. } = &f.instr(phi).kind else { panic!() };
        let (_, from_bb4) = incomings.iter().find(|(b, _)| b.0 == 4).unwrap();
        let Value::Instr(add) = *from_bb4 else { panic!("{from_bb4:?}") };
        assert_eq!(f.instr(add).operands(), [Value::i64(0), Value::i64(1)]);
        assert_eq!(run_fn(&m, "main", &[(-3i64) as u64]), Some(7));
        assert_eq!(run_fn(&m, "main", &[5]), Some(5));
    }
}
