//! Function inlining for the `-O1` pipeline.
//!
//! Inlining matters to CARE beyond performance: Armor's extraction stops at
//! complex calls, so an address computation routed through a small helper
//! function is only recoverable up to the call result. Once the helper is
//! inlined, the backward slice crosses the former boundary and the recovery
//! kernel can recompute the whole index — the paper's "code optimization
//! extends the coverage scope" effect (§5.2).
//!
//! Inlined instructions receive **fresh debug locations**: the paper (§3.3)
//! requires unique `(file, line, col)` keys per memory access, and naive
//! inlining would duplicate the callee's tuples at every call site (the
//! "conflicts for some instructions that end up sharing the same debug
//! data" Armor must resolve).

use tinyir::{
    BlockId, Callee, DebugLoc, FuncId, Function, Instr, InstrId, InstrKind, Module, Value,
};

/// Default maximum callee size (live instructions) for inlining.
pub const INLINE_THRESHOLD: usize = 64;
/// Maximum inlines applied per caller per pass (growth bound).
const MAX_INLINES_PER_CALLER: usize = 16;

/// Run the inliner over the module. Returns the number of call sites
/// inlined.
pub fn run(module: &mut Module, threshold: usize) -> usize {
    // Next fresh debug line per file, module-wide.
    let mut next_line: u32 = module
        .funcs
        .iter()
        .flat_map(|f| f.instrs.iter())
        .filter_map(|i| i.loc.map(|l| l.line))
        .max()
        .unwrap_or(0)
        + 1;

    // Decide inlinable callees up front (small, defined, not directly
    // recursive).
    let inlinable: Vec<bool> = module
        .funcs
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            if f.is_decl || f.live_instr_count() > threshold {
                return false;
            }
            let self_id = FuncId(fi as u32);
            !f.blocks.iter().flat_map(|b| &b.instrs).any(|&iid| {
                matches!(
                    f.instr(iid).kind,
                    InstrKind::Call { callee: Callee::Func(c), .. } if c == self_id
                )
            })
        })
        .collect();

    let mut total = 0;
    // Pre-pass bodies of the callees that may be inlined.
    let snapshot: Vec<Option<Function>> =
        module.funcs.iter().zip(&inlinable).map(|(f, &ok)| ok.then(|| f.clone())).collect();
    for caller in &mut module.funcs {
        if caller.is_decl {
            continue;
        }
        let mut budget = MAX_INLINES_PER_CALLER;
        loop {
            if budget == 0 {
                break;
            }
            let Some((bb, pos, callee_id)) = find_inlinable_call(caller, &inlinable) else {
                break;
            };
            inline_one(
                caller,
                bb,
                pos,
                snapshot[callee_id.0 as usize].as_ref().expect("inlinable callees are kept"),
                &mut next_line,
            );
            budget -= 1;
            total += 1;
        }
    }
    module.rebuild_indexes();
    total
}

fn find_inlinable_call(f: &Function, inlinable: &[bool]) -> Option<(BlockId, usize, FuncId)> {
    for (bid, block) in f.block_iter() {
        for (pos, &iid) in block.instrs.iter().enumerate() {
            if let InstrKind::Call { callee: Callee::Func(c), .. } = f.instr(iid).kind {
                if inlinable.get(c.0 as usize).copied().unwrap_or(false) {
                    return Some((bid, pos, c));
                }
            }
        }
    }
    None
}

/// Inline the call at `caller.blocks[bb][pos]`, whose callee body is
/// `callee` (a pre-pass snapshot; callees are themselves already small).
fn inline_one(
    caller: &mut Function,
    bb: BlockId,
    pos: usize,
    callee: &Function,
    next_line: &mut u32,
) {
    let call_id = caller.blocks[bb.0 as usize].instrs[pos];
    let (args, _ret_ty) = match &caller.instr(call_id).kind {
        InstrKind::Call { args, ret_ty, .. } => (args.clone(), *ret_ty),
        _ => unreachable!("inline target is a call"),
    };
    let fresh_file = caller
        .instr(call_id)
        .loc
        .map(|l| l.file)
        .or_else(|| callee.instrs.first().and_then(|i| i.loc.map(|l| l.file)));

    // Split the containing block: `bb` keeps [0, pos), `cont` gets
    // (pos, ..] — including the original terminator.
    let cont = caller.add_block(format!("inline.cont.{}", call_id.0));
    let tail: Vec<InstrId> = caller.blocks[bb.0 as usize].instrs.drain(pos + 1..).collect();
    caller.blocks[bb.0 as usize].instrs.pop(); // drop the call itself
    caller.blocks[cont.0 as usize].instrs = tail;

    // Phis in the original successors referenced `bb`; the edge now comes
    // from `cont`.
    let succs: Vec<BlockId> = caller.blocks[cont.0 as usize]
        .instrs
        .last()
        .map(|&t| caller.instr(t).successors())
        .unwrap_or_default();
    for s in succs {
        let instrs = caller.blocks[s.0 as usize].instrs.clone();
        for iid in instrs {
            if let InstrKind::Phi { incomings, .. } = &mut caller.instr_mut(iid).kind {
                for (b, _) in incomings.iter_mut() {
                    if *b == bb {
                        *b = cont;
                    }
                }
            }
        }
    }

    // Clone callee blocks and instructions: callee block `b` becomes
    // `first_block + b` and callee instruction `i` becomes `first_instr + i`.
    let first_block = caller.blocks.len() as u32;
    for b in &callee.blocks {
        caller.add_block(format!("inl.{}.{}", call_id.0, b.name));
    }
    let block_map = |b: BlockId| BlockId(first_block + b.0);
    let first_instr = caller.instrs.len() as u32;
    let value_map = |i: InstrId| InstrId(first_instr + i.0);
    // First pass: allocate ids in callee arena order so intra-callee
    // references resolve regardless of block layout.
    for instr in &callee.instrs {
        let mut cloned = instr.clone();
        // Fresh, unique debug locations (Armor key uniqueness).
        if let Some(file) = fresh_file {
            cloned.loc = Some(DebugLoc::new(file, *next_line, 1));
            *next_line += 1;
        }
        caller.instrs.push(cloned);
    }
    // Rewrite the cloned instructions in place.
    let remap = |v: Value| -> Value {
        match v {
            Value::Arg(a) => args[a as usize],
            Value::Instr(id) => Value::Instr(value_map(id)),
            other => other,
        }
    };
    let mut ret_edges: Vec<(BlockId, Option<Value>)> = Vec::new();
    for (old_bid, block) in callee.block_iter() {
        let new_bid = block_map(old_bid);
        for &old_iid in &block.instrs {
            let new_iid = value_map(old_iid);
            let instr = &mut caller.instrs[new_iid.0 as usize];
            match &mut instr.kind {
                InstrKind::Ret { val } => {
                    ret_edges.push((new_bid, val.map(remap)));
                    instr.kind = InstrKind::Br { target: cont };
                }
                _ => {
                    // Remap operands (args -> call arguments, instrs ->
                    // clones), then phi incoming blocks and branch targets.
                    instr.map_operands(remap);
                    match &mut instr.kind {
                        InstrKind::Phi { incomings, .. } => {
                            for (b, _) in incomings.iter_mut() {
                                *b = block_map(*b);
                            }
                        }
                        InstrKind::Br { target } => *target = block_map(*target),
                        InstrKind::CondBr { then_bb, else_bb, .. } => {
                            *then_bb = block_map(*then_bb);
                            *else_bb = block_map(*else_bb);
                        }
                        _ => {}
                    }
                }
            }
            caller.blocks[new_bid.0 as usize].instrs.push(new_iid);
        }
    }

    // Terminate `bb` with a jump into the inlined entry.
    let entry_clone = block_map(callee.entry());
    let br_id = InstrId(caller.instrs.len() as u32);
    caller.instrs.push(Instr::new(InstrKind::Br { target: entry_clone }));
    caller.blocks[bb.0 as usize].instrs.push(br_id);

    // The call's result: single return value substitutes directly; multiple
    // returns merge through a phi at the head of `cont`.
    let result: Option<Value> = match ret_edges.len() {
        0 => None,
        1 => ret_edges[0].1,
        _ => {
            if ret_edges.iter().all(|(_, v)| v.is_none()) {
                None
            } else {
                let phi_id = InstrId(caller.instrs.len() as u32);
                let incomings: Vec<(BlockId, Value)> = ret_edges
                    .iter()
                    .map(|(b, v)| (*b, v.unwrap_or(Value::ConstInt(0, tinyir::Ty::I64))))
                    .collect();
                let ty = incomings
                    .first()
                    .and_then(|(_, v)| tinyir::module::value_ty(caller, *v))
                    .unwrap_or(tinyir::Ty::I64);
                let mut phi = Instr::new(InstrKind::Phi { incomings, ty });
                if let Some(file) = fresh_file {
                    phi.loc = Some(DebugLoc::new(file, *next_line, 1));
                    *next_line += 1;
                }
                caller.instrs.push(phi);
                caller.blocks[cont.0 as usize].instrs.insert(0, phi_id);
                Some(Value::Instr(phi_id))
            }
        }
    };
    if let Some(res) = result {
        for instr in &mut caller.instrs {
            instr.map_operands(|v| if v == Value::Instr(call_id) { res } else { v });
        }
    }

    // An empty `bb` prefix is fine (it holds at least the new Br); an empty
    // `cont` cannot happen because the original block had a terminator
    // after the call.
    debug_assert!(!caller.blocks[cont.0 as usize].instrs.is_empty());
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyir::builder::ModuleBuilder;
    use tinyir::interp::{layout_globals, Interp};
    use tinyir::mem::PagedMemory;
    use tinyir::{ICmp, Ty};

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

    #[test]
    fn inlines_straightline_helper() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let helper = mb.declare("triple", vec![Ty::I64], Some(Ty::I64));
        mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
            let a = fb.call(helper, vec![fb.arg(0)]);
            let b = fb.call(helper, vec![a]);
            fb.ret(Some(b));
        });
        mb.define("triple", vec![Ty::I64], Some(Ty::I64), |fb| {
            let r = fb.mul(fb.arg(0), Value::i64(3), Ty::I64);
            fb.ret(Some(r));
        });
        let mut m = mb.finish();
        assert_eq!(run_fn(&m, "main", &[4]), Some(36));
        let n = run(&mut m, INLINE_THRESHOLD);
        assert_eq!(n, 2);
        crate::tests::verify_compacted(&mut m);
        assert_eq!(run_fn(&m, "main", &[4]), Some(36));
        // No calls remain in main.
        let main = m.func_by_name("main").unwrap();
        let f = m.func(main);
        assert!(!f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|&i| matches!(f.instr(i).kind, InstrKind::Call { callee: Callee::Func(_), .. })));
    }

    #[test]
    fn inlines_branchy_helper_with_control_flow() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let absf = mb.declare("absv", vec![Ty::I64], Some(Ty::I64));
        mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
            let a = fb.call(absf, vec![fb.arg(0)]);
            let b = fb.add(a, Value::i64(1), Ty::I64);
            fb.ret(Some(b));
        });
        mb.define("absv", vec![Ty::I64], Some(Ty::I64), |fb| {
            let neg = fb.icmp(ICmp::Slt, fb.arg(0), Value::i64(0));
            let slot = fb.alloca(Ty::I64, 1);
            fb.if_then_else(
                neg,
                |fb| {
                    let n = fb.sub(Value::i64(0), fb.arg(0), Ty::I64);
                    fb.store(n, slot);
                },
                |fb| fb.store(fb.arg(0), slot),
            );
            let r = fb.load(slot, Ty::I64);
            fb.ret(Some(r));
        });
        let mut m = mb.finish();
        let n = run(&mut m, INLINE_THRESHOLD);
        assert_eq!(n, 1);
        crate::tests::verify_compacted(&mut m);
        assert_eq!(run_fn(&m, "main", &[(-7i64) as u64]), Some(8));
        assert_eq!(run_fn(&m, "main", &[7]), Some(8));
    }

    #[test]
    fn inlined_instructions_get_unique_debug_locations() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let g = mb.global_zeroed("arr", Ty::F64, 64);
        let helper = mb.declare("get", vec![Ty::I64], Some(Ty::F64));
        mb.define("main", vec![Ty::I64], Some(Ty::F64), |fb| {
            let a = fb.call(helper, vec![fb.arg(0)]);
            let i1 = fb.add(fb.arg(0), Value::i64(1), Ty::I64);
            let b = fb.call(helper, vec![i1]);
            let s = fb.fadd(a, b, Ty::F64);
            fb.ret(Some(s));
        });
        mb.define("get", vec![Ty::I64], Some(Ty::F64), |fb| {
            let v = fb.load_elem(fb.global(g), fb.arg(0), Ty::F64);
            fb.ret(Some(v));
        });
        let mut m = mb.finish();
        run(&mut m, INLINE_THRESHOLD);
        crate::tests::verify_compacted(&mut m);
        // Every memory access across the module still has a unique loc.
        let mut locs = Vec::new();
        for f in &m.funcs {
            for acc in f.mem_access_instrs() {
                locs.push(f.instr(acc).loc.unwrap());
            }
        }
        let n = locs.len();
        locs.sort();
        locs.dedup();
        assert_eq!(locs.len(), n, "inlined accesses must not share debug keys");
    }

    #[test]
    fn recursive_functions_are_not_inlined() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let fact = mb.declare("fact", vec![Ty::I64], Some(Ty::I64));
        mb.define("fact", vec![Ty::I64], Some(Ty::I64), |fb| {
            let base = fb.icmp(ICmp::Sle, fb.arg(0), Value::i64(1));
            let out = fb.alloca(Ty::I64, 1);
            fb.if_then_else(
                base,
                |fb| fb.store(Value::i64(1), out),
                |fb| {
                    let n1 = fb.sub(fb.arg(0), Value::i64(1), Ty::I64);
                    let r = fb.call(fact, vec![n1]);
                    let p = fb.mul(r, fb.arg(0), Ty::I64);
                    fb.store(p, out);
                },
            );
            let r = fb.load(out, Ty::I64);
            fb.ret(Some(r));
        });
        let mut m = mb.finish();
        assert_eq!(run(&mut m, INLINE_THRESHOLD), 0);
        assert_eq!(run_fn(&m, "fact", &[5]), Some(120));
    }

    #[test]
    fn large_functions_respect_threshold() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let big = mb.declare("big", vec![Ty::I64], Some(Ty::I64));
        mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
            let r = fb.call(big, vec![fb.arg(0)]);
            fb.ret(Some(r));
        });
        mb.define("big", vec![Ty::I64], Some(Ty::I64), |fb| {
            let mut v = fb.arg(0);
            for _ in 0..50 {
                v = fb.add(v, Value::i64(1), Ty::I64);
            }
            fb.ret(Some(v));
        });
        let mut m = mb.finish();
        assert_eq!(run(&mut m, 20), 0, "callee above threshold stays");
        assert_eq!(run(&mut m, 100), 1, "higher threshold admits it");
    }
}
