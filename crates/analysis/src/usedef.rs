//! Use–def chains: for each value, who uses it.

use tinyir::{Function, InstrId, InstrKind, Value};

/// Users of every instruction-defined value, as one flat list: the users
/// of `%vK` are `list[start[K]..start[K + 1]]`, in block order.
#[derive(Debug, Clone)]
pub struct UseDef {
    start: Vec<u32>,
    list: Vec<InstrId>,
}

impl UseDef {
    /// Compute use–def chains for `f`.
    pub fn compute(f: &Function) -> UseDef {
        // Count, turn the counts into starts, then fill in block order.
        let mut start = vec![0u32; f.instrs.len() + 1];
        for (_, block) in f.block_iter() {
            for &iid in &block.instrs {
                f.instr(iid).for_each_operand(|v| {
                    if let Value::Instr(d) = v {
                        start[d.0 as usize + 1] += 1;
                    }
                });
            }
        }
        for k in 1..start.len() {
            start[k] += start[k - 1];
        }
        let mut next = start.clone();
        let mut list = vec![InstrId(0); *start.last().unwrap_or(&0) as usize];
        for (_, block) in f.block_iter() {
            for &iid in &block.instrs {
                f.instr(iid).for_each_operand(|v| {
                    if let Value::Instr(d) = v {
                        list[next[d.0 as usize] as usize] = iid;
                        next[d.0 as usize] += 1;
                    }
                });
            }
        }
        UseDef { start, list }
    }

    /// The instructions that use `%v` as an operand.
    pub fn users(&self, v: InstrId) -> &[InstrId] {
        let k = v.0 as usize;
        &self.list[self.start[k] as usize..self.start[k + 1] as usize]
    }

    /// The single user of `%v` if it has exactly one (the precondition for
    /// CISC folding a load into its consumer during instruction selection).
    pub fn single_user(&self, v: InstrId) -> Option<InstrId> {
        match self.users(v) {
            [u] => Some(*u),
            _ => None,
        }
    }
}

/// Count the binary/cast/gep/call-math operations feeding an address operand
/// — the paper's Table 5 statistic ("number of operations involved in
/// address calculations").
pub fn address_computation_ops(f: &Function, mem_access: InstrId) -> usize {
    let Some(addr) = f.instr(mem_access).addr_operand() else {
        return 0;
    };
    // One bit per instruction id.
    let mut seen = vec![0u64; f.instrs.len().div_ceil(64)];
    let mut stack = vec![addr];
    let mut count = 0usize;
    while let Some(v) = stack.pop() {
        let Value::Instr(id) = v else { continue };
        let (word, bit) = (id.0 as usize / 64, 1u64 << (id.0 % 64));
        if seen[word] & bit != 0 {
            continue;
        }
        seen[word] |= bit;
        match &f.instr(id).kind {
            InstrKind::Bin { lhs, rhs, .. } => {
                count += 1;
                stack.push(*lhs);
                stack.push(*rhs);
            }
            InstrKind::Gep { base, index, .. } => {
                // A scaled gep lowers to an addition plus a multiplication
                // (`base + index*size`), which is how the paper's LLVM-level
                // count sees it; an unscaled (constant-index) gep is a
                // single addition.
                count += if index.is_const() { 1 } else { 2 };
                stack.push(*base);
                stack.push(*index);
            }
            InstrKind::Cast { val, .. } => {
                stack.push(*val);
            }
            InstrKind::Load { .. } | InstrKind::Phi { .. } | InstrKind::Alloca { .. } => {}
            InstrKind::Call { args, .. } => {
                count += 1;
                for a in args {
                    stack.push(*a);
                }
            }
            InstrKind::Select { cond, t, f: fv, .. } => {
                count += 1;
                stack.push(*cond);
                stack.push(*t);
                stack.push(*fv);
            }
            _ => {}
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyir::builder::ModuleBuilder;
    use tinyir::{Ty, Value};

    #[test]
    fn counts_and_single_user() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("f", vec![Ty::I64], Some(Ty::I64), |fb| {
            let a = fb.add(fb.arg(0), Value::i64(1), Ty::I64); // v0: 2 uses
            let b = fb.mul(a, a, Ty::I64); // v1: 1 use
            fb.ret(Some(b));
        });
        let m = mb.finish();
        let ud = UseDef::compute(&m.funcs[0]);
        assert_eq!(ud.single_user(InstrId(1)), Some(InstrId(2)));
        assert_eq!(ud.single_user(InstrId(0)), None);
        assert_eq!(ud.users(InstrId(0)), &[InstrId(1), InstrId(1)]);
    }

    #[test]
    fn address_op_counting_matches_stencil_shape() {
        // Reproduce the paper's Figure 2 address shape:
        // phitmp[(mzeta+1)*(igrid[i]-igrid_in)+k]
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define(
            "stencil",
            vec![Ty::Ptr, Ty::Ptr, Ty::I64, Ty::I64, Ty::I64, Ty::I64],
            Some(Ty::F64),
            |fb| {
                let (phitmp, igrid, mzeta, igrid_in, i, k) =
                    (fb.arg(0), fb.arg(1), fb.arg(2), fb.arg(3), fb.arg(4), fb.arg(5));
                let gi = fb.load_elem(igrid, i, Ty::I64); // gep + load
                let m1 = fb.add(mzeta, Value::i64(1), Ty::I64);
                let d = fb.sub(gi, igrid_in, Ty::I64);
                let p = fb.mul(m1, d, Ty::I64);
                let idx = fb.add(p, k, Ty::I64);
                let v = fb.load_elem(phitmp, idx, Ty::F64); // gep + load
                fb.ret(Some(v));
            },
        );
        let m = mb.finish();
        let f = &m.funcs[0];
        let loads = f.mem_access_instrs();
        let final_load = *loads.last().unwrap();
        // gep(phitmp)=2 + add + mul + sub + m1-add = 6 ops (the inner gep
        // for igrid terminates at the load).
        assert_eq!(address_computation_ops(f, final_load), 6);
        // The igrid[i] load's own address: its scaled gep (add + mul).
        assert_eq!(address_computation_ops(f, loads[0]), 2);
    }
}
