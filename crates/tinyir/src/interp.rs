//! Reference interpreter for TinyIR.
//!
//! The interpreter serves three roles in the CARE reproduction:
//!
//! 1. **Golden semantics** — fault-injection campaigns compare machine-level
//!    runs against the interpreter's output to classify SDCs.
//! 2. **Recovery-kernel execution** — Safeguard executes recovery kernels
//!    (which are ordinary TinyIR functions) against the *stopped process's*
//!    memory, modelling the paper's `dlopen` + `libffi` call path.
//! 3. **Differential testing** — property tests check interpreter ⟷ SimISA
//!    equivalence.
//!
//! Values are passed around as raw little-endian bit patterns (`u64`); the
//! instruction's type decides how the bits are interpreted, exactly like a
//! register file.
//!
//! [`eval_bin`], [`eval_icmp`], [`eval_fcmp`], [`eval_cast`] and
//! [`eval_intrinsic`] are the one definition of arithmetic, comparisons,
//! conversions and intrinsics that this interpreter, both SimISA engines
//! and `opt`'s constant folder share.

use crate::debugloc::DebugLoc;
use crate::instr::{BinOp, Callee, CastOp, FCmp, ICmp, InstrKind, Intrinsic};
use crate::mem::{MemFault, PagedMemory};
use crate::module::Module;
use crate::types::Ty;
use crate::value::{BlockId, FuncId, GlobalId, InstrId, Value};

/// Why execution stopped abnormally.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultKind {
    /// Invalid memory reference (`SIGSEGV`), with the faulting address.
    Segv(u64),
    /// Misaligned access (`SIGBUS`), with the faulting address.
    Bus(u64),
    /// Integer divide error (`SIGFPE`).
    Fpe,
    /// Failed assertion / `abort()` (`SIGABRT`).
    Abort,
    /// Instruction budget exhausted — the run is classified as a hang.
    OutOfFuel,
    /// Ill-formed IR encountered at runtime (verifier escape hatch).
    Invalid(&'static str),
}

/// An abnormal termination: what happened and where.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Fault {
    /// Signal-like classification.
    pub kind: FaultKind,
    /// Debug location of the faulting instruction, if known.
    pub loc: Option<DebugLoc>,
}

/// Result alias for interpreter operations.
pub type ExecResult<T> = Result<T, Fault>;

/// Sign-extend the low `ty.bits()` bits.
#[inline]
pub fn sext_bits(bits: u64, ty: Ty) -> i64 {
    let b = ty.bits();
    if b >= 64 {
        return bits as i64;
    }
    let shift = 64 - b;
    ((bits << shift) as i64) >> shift
}

/// Zero-extend (mask) the low `ty.bits()` bits.
#[inline]
pub fn zext_bits(bits: u64, ty: Ty) -> u64 {
    bits & ty.mask()
}

/// Interpret bits as the float type `ty` (f32 stored in the low 32 bits).
#[inline]
pub fn float_of_bits(bits: u64, ty: Ty) -> f64 {
    match ty {
        Ty::F32 => f32::from_bits(bits as u32) as f64,
        _ => f64::from_bits(bits),
    }
}

/// Encode a float as bits of type `ty`.
#[inline]
pub fn bits_of_float(v: f64, ty: Ty) -> u64 {
    match ty {
        Ty::F32 => (v as f32).to_bits() as u64,
        _ => v.to_bits(),
    }
}

/// Bit pattern of a constant [`Value`]; `None` for non-constants.
pub fn const_bits(v: Value) -> Option<u64> {
    match v {
        Value::ConstInt(x, ty) => Some((x as u64) & ty.mask()),
        Value::ConstFloat(x, ty) => Some(bits_of_float(x, ty)),
        Value::ConstNull => Some(0),
        _ => None,
    }
}

/// Lay the module's globals out in `mem` starting at `base`, each in its own
/// page-aligned region separated by an unmapped guard page, and write their
/// initialisers. Returns the address of each global (index = [`GlobalId`]).
///
/// Guard pages make stray addresses fault quickly, which is what gives the
/// single-bit-flip campaign its SIGSEGV-dominated failure profile.
pub fn layout_globals(module: &Module, mem: &mut PagedMemory, base: u64) -> Vec<u64> {
    let mut addrs = Vec::with_capacity(module.globals.len());
    let mut cur = base;
    for g in &module.globals {
        cur = (cur + crate::mem::PAGE_SIZE - 1) & !(crate::mem::PAGE_SIZE - 1);
        let size = g.size().max(1);
        mem.map_region(cur, size);
        addrs.push(cur);
        // Leave one unmapped guard page after the data.
        cur += size + crate::mem::PAGE_SIZE;
    }
    // Write initialisers. `store` enforces natural alignment, so encode as
    // element-size stores.
    for (g, &addr) in module.globals.iter().zip(&addrs) {
        let bytes = g.init.to_bytes(g.size() as usize);
        let es = g.elem_ty.size();
        for (i, chunk) in bytes.chunks(es as usize).enumerate() {
            let mut bits = 0u64;
            for (j, b) in chunk.iter().enumerate() {
                bits |= (*b as u64) << (8 * j);
            }
            mem.store(addr + (i as u64) * es as u64, es, bits).expect("global region just mapped");
        }
    }
    addrs
}

/// The interpreter. Owns no memory: it executes against a borrowed
/// [`PagedMemory`] plus a global address table.
pub struct Interp<'a> {
    /// Module being executed.
    pub module: &'a Module,
    /// Backing memory.
    pub mem: &'a mut PagedMemory,
    /// Address of each global (index = [`GlobalId`]).
    pub globals: &'a [u64],
    /// Bump pointer for stack allocations (grows upward).
    pub stack_ptr: u64,
    /// Upper bound for the stack region.
    pub stack_limit: u64,
    /// Bump pointer for `malloc`.
    pub heap_ptr: u64,
    /// Remaining instruction budget; hitting zero raises `OutOfFuel`.
    pub fuel: u64,
    /// Dynamic instructions executed so far.
    pub steps: u64,
}

impl<'a> Interp<'a> {
    /// Create an interpreter with the given stack/heap windows and fuel.
    pub fn new(
        module: &'a Module,
        mem: &'a mut PagedMemory,
        globals: &'a [u64],
        stack_base: u64,
        stack_limit: u64,
        heap_base: u64,
        fuel: u64,
    ) -> Interp<'a> {
        Interp {
            module,
            mem,
            globals,
            stack_ptr: stack_base,
            stack_limit,
            heap_ptr: heap_base,
            fuel,
            steps: 0,
        }
    }

    /// Call function `f` with raw-bit `args`; returns the raw-bit result.
    pub fn call(&mut self, f: FuncId, args: &[u64]) -> ExecResult<Option<u64>> {
        let func = self.module.func(f);
        if func.is_decl {
            return Err(Fault { kind: FaultKind::Invalid("call to declaration"), loc: None });
        }
        if args.len() != func.params.len() {
            return Err(Fault { kind: FaultKind::Invalid("arity mismatch"), loc: None });
        }
        let saved_sp = self.stack_ptr;
        let mut regs: Vec<Option<u64>> = vec![None; func.instrs.len()];
        let mut cur = func.entry();
        let mut pred: Option<BlockId> = None;
        let result = loop {
            // Evaluate phis atomically on block entry.
            if let Some(p) = pred {
                let block = func.block(cur);
                let mut phi_vals: Vec<(InstrId, u64)> = Vec::new();
                for &iid in &block.instrs {
                    match &func.instr(iid).kind {
                        InstrKind::Phi { incomings, .. } => {
                            let v =
                                incomings.iter().find(|(b, _)| *b == p).map(|(_, v)| *v).ok_or(
                                    Fault {
                                        kind: FaultKind::Invalid("phi missing incoming"),
                                        loc: func.instr(iid).loc,
                                    },
                                )?;
                            let bits = self.value_bits(&regs, args, func, v)?;
                            phi_vals.push((iid, bits));
                        }
                        _ => break,
                    }
                }
                for (iid, bits) in phi_vals {
                    regs[iid.0 as usize] = Some(bits);
                }
            }

            let block = func.block(cur);
            let mut next: Option<(BlockId, BlockId)> = None; // (from, to)
            let mut returned: Option<Option<u64>> = None;
            for &iid in &block.instrs {
                let instr = func.instr(iid);
                if matches!(instr.kind, InstrKind::Phi { .. }) {
                    continue; // handled above
                }
                if self.fuel == 0 {
                    break;
                }
                self.fuel -= 1;
                self.steps += 1;
                let loc = instr.loc;
                match &instr.kind {
                    InstrKind::Alloca { elem_ty, count } => {
                        let size = (elem_ty.size() as u64 * *count as u64).max(1);
                        let align = elem_ty.align() as u64;
                        let addr = (self.stack_ptr + align - 1) & !(align - 1);
                        if addr + size > self.stack_limit {
                            return Err(Fault { kind: FaultKind::Segv(addr + size), loc });
                        }
                        self.mem.map_region(addr, size);
                        self.stack_ptr = addr + size;
                        regs[iid.0 as usize] = Some(addr);
                    }
                    InstrKind::Load { ptr, ty } => {
                        let addr = self.value_bits(&regs, args, func, *ptr)?;
                        let bits = self.mem.load(addr, ty.size()).map_err(|e| fault_of(e, loc))?;
                        regs[iid.0 as usize] = Some(bits);
                    }
                    InstrKind::Store { val, ptr } => {
                        let ty = crate::module::value_ty(func, *val).ok_or(Fault {
                            kind: FaultKind::Invalid("untyped store value"),
                            loc,
                        })?;
                        let bits = self.value_bits(&regs, args, func, *val)?;
                        let addr = self.value_bits(&regs, args, func, *ptr)?;
                        self.mem.store(addr, ty.size(), bits).map_err(|e| fault_of(e, loc))?;
                    }
                    InstrKind::Gep { base, index, elem_size } => {
                        let b = self.value_bits(&regs, args, func, *base)?;
                        let i = self.value_bits(&regs, args, func, *index)? as i64;
                        let addr = (b as i64).wrapping_add(i.wrapping_mul(*elem_size as i64));
                        regs[iid.0 as usize] = Some(addr as u64);
                    }
                    InstrKind::Bin { op, lhs, rhs, ty } => {
                        let l = self.value_bits(&regs, args, func, *lhs)?;
                        let r = self.value_bits(&regs, args, func, *rhs)?;
                        let bits = eval_bin(*op, l, r, *ty).map_err(|k| Fault { kind: k, loc })?;
                        regs[iid.0 as usize] = Some(bits);
                    }
                    InstrKind::Icmp { pred: p, lhs, rhs } => {
                        let ty = crate::module::value_ty(func, *lhs).unwrap_or(Ty::I64);
                        let l = self.value_bits(&regs, args, func, *lhs)?;
                        let r = self.value_bits(&regs, args, func, *rhs)?;
                        regs[iid.0 as usize] = Some(eval_icmp(*p, l, r, ty) as u64);
                    }
                    InstrKind::Fcmp { pred: p, lhs, rhs } => {
                        let ty = crate::module::value_ty(func, *lhs).unwrap_or(Ty::F64);
                        let l = float_of_bits(self.value_bits(&regs, args, func, *lhs)?, ty);
                        let r = float_of_bits(self.value_bits(&regs, args, func, *rhs)?, ty);
                        regs[iid.0 as usize] = Some(eval_fcmp(*p, l, r) as u64);
                    }
                    InstrKind::Cast { op, val, to } => {
                        let from = crate::module::value_ty(func, *val).unwrap_or(Ty::I64);
                        let v = self.value_bits(&regs, args, func, *val)?;
                        regs[iid.0 as usize] = Some(eval_cast(*op, v, from, *to));
                    }
                    InstrKind::Select { cond, t, f: fv, .. } => {
                        let c = self.value_bits(&regs, args, func, *cond)? & 1;
                        let chosen = if c != 0 { *t } else { *fv };
                        let bits = self.value_bits(&regs, args, func, chosen)?;
                        regs[iid.0 as usize] = Some(bits);
                    }
                    InstrKind::Phi { .. } => unreachable!(),
                    InstrKind::Call { callee, args: call_args, .. } => {
                        let mut argv = Vec::with_capacity(call_args.len());
                        for a in call_args {
                            argv.push(self.value_bits(&regs, args, func, *a)?);
                        }
                        match callee {
                            Callee::Intrinsic(i) => {
                                let r = eval_intrinsic(*i, &argv, self.mem, &mut self.heap_ptr)
                                    .map_err(|k| Fault { kind: k, loc })?;
                                if let Some(bits) = r {
                                    regs[iid.0 as usize] = Some(bits);
                                }
                            }
                            Callee::Func(fid) => {
                                let r = self.call(*fid, &argv)?;
                                if let Some(bits) = r {
                                    regs[iid.0 as usize] = Some(bits);
                                }
                            }
                        }
                    }
                    InstrKind::Br { target } => {
                        next = Some((cur, *target));
                        break;
                    }
                    InstrKind::CondBr { cond, then_bb, else_bb } => {
                        let c = self.value_bits(&regs, args, func, *cond)? & 1;
                        next = Some((cur, if c != 0 { *then_bb } else { *else_bb }));
                        break;
                    }
                    InstrKind::Ret { val } => {
                        returned = Some(match val {
                            Some(v) => Some(self.value_bits(&regs, args, func, *v)?),
                            None => None,
                        });
                        break;
                    }
                }
            }
            if self.fuel == 0 {
                break Err(Fault { kind: FaultKind::OutOfFuel, loc: None });
            }
            if let Some(r) = returned {
                break Ok(r);
            }
            match next {
                Some((from, to)) => {
                    pred = Some(from);
                    cur = to;
                }
                None => {
                    break Err(Fault {
                        kind: FaultKind::Invalid("block fell through without terminator"),
                        loc: None,
                    })
                }
            }
        };
        self.stack_ptr = saved_sp;
        result
    }

    fn value_bits(
        &mut self,
        regs: &[Option<u64>],
        args: &[u64],
        func: &crate::module::Function,
        v: Value,
    ) -> ExecResult<u64> {
        match v {
            Value::Instr(id) => regs[id.0 as usize].ok_or(Fault {
                kind: FaultKind::Invalid("use of undefined value"),
                loc: func.instr(id).loc,
            }),
            Value::Arg(i) => Ok(args[i as usize]),
            Value::Global(GlobalId(g)) => Ok(self.globals[g as usize]),
            _ => const_bits(v).ok_or(Fault {
                kind: FaultKind::Invalid("non-const in const position"),
                loc: None,
            }),
        }
    }
}

/// Evaluate an intrinsic call on raw-bit arguments: the result bits, if any,
/// or `Abort` (a failed `Assert`, `Abort`). `Malloc` bumps `heap_ptr`: a
/// block is 16-byte aligned, at least one byte, and followed by a page-long
/// gap before the next; `Free` is a no-op.
#[inline]
pub fn eval_intrinsic(
    which: Intrinsic,
    args: &[u64],
    mem: &mut PagedMemory,
    heap_ptr: &mut u64,
) -> Result<Option<u64>, FaultKind> {
    let f = |n: usize| f64::from_bits(args[n]);
    Ok(match which {
        Intrinsic::Sqrt => Some(f(0).sqrt().to_bits()),
        Intrinsic::Fabs => Some(f(0).abs().to_bits()),
        Intrinsic::Sin => Some(f(0).sin().to_bits()),
        Intrinsic::Cos => Some(f(0).cos().to_bits()),
        Intrinsic::Exp => Some(f(0).exp().to_bits()),
        Intrinsic::Floor => Some(f(0).floor().to_bits()),
        Intrinsic::Pow => Some(f(0).powf(f(1)).to_bits()),
        Intrinsic::FMin => Some(f(0).min(f(1)).to_bits()),
        Intrinsic::FMax => Some(f(0).max(f(1)).to_bits()),
        Intrinsic::IMin => Some(((args[0] as i64).min(args[1] as i64)) as u64),
        Intrinsic::IMax => Some(((args[0] as i64).max(args[1] as i64)) as u64),
        Intrinsic::Assert => {
            if args[0] & 1 == 0 {
                return Err(FaultKind::Abort);
            }
            None
        }
        Intrinsic::Abort => return Err(FaultKind::Abort),
        Intrinsic::Malloc => {
            let size = args[0].max(1);
            let addr = (*heap_ptr + 15) & !15;
            mem.map_region(addr, size);
            *heap_ptr = addr + size + crate::mem::PAGE_SIZE;
            Some(addr)
        }
        Intrinsic::Free => None,
    })
}

fn fault_of(e: MemFault, loc: Option<DebugLoc>) -> Fault {
    let kind = match e {
        MemFault::Unmapped(a) => FaultKind::Segv(a),
        MemFault::Misaligned(a) => FaultKind::Bus(a),
    };
    Fault { kind, loc }
}

/// Evaluate a binary operator on raw bits. Public so that constant folding
/// (in `opt`) and SimISA (in `simx`) share one definition of arithmetic.
#[inline]
pub fn eval_bin(op: BinOp, l: u64, r: u64, ty: Ty) -> Result<u64, FaultKind> {
    if op.is_float() {
        let a = float_of_bits(l, ty);
        let b = float_of_bits(r, ty);
        let v = match op {
            BinOp::FAdd => a + b,
            BinOp::FSub => a - b,
            BinOp::FMul => a * b,
            BinOp::FDiv => a / b,
            _ => unreachable!(),
        };
        return Ok(bits_of_float(v, ty));
    }
    let ls = sext_bits(l, ty);
    let rs = sext_bits(r, ty);
    let lu = zext_bits(l, ty);
    let ru = zext_bits(r, ty);
    let shift_amt = (ru % ty.bits() as u64) as u32;
    let v: u64 = match op {
        BinOp::Add => (ls.wrapping_add(rs)) as u64,
        BinOp::Sub => (ls.wrapping_sub(rs)) as u64,
        BinOp::Mul => (ls.wrapping_mul(rs)) as u64,
        BinOp::SDiv => {
            if rs == 0 {
                return Err(FaultKind::Fpe);
            }
            ls.wrapping_div(rs) as u64
        }
        BinOp::UDiv => {
            if ru == 0 {
                return Err(FaultKind::Fpe);
            }
            lu / ru
        }
        BinOp::SRem => {
            if rs == 0 {
                return Err(FaultKind::Fpe);
            }
            ls.wrapping_rem(rs) as u64
        }
        BinOp::URem => {
            if ru == 0 {
                return Err(FaultKind::Fpe);
            }
            lu % ru
        }
        BinOp::And => lu & ru,
        BinOp::Or => lu | ru,
        BinOp::Xor => lu ^ ru,
        BinOp::Shl => lu.wrapping_shl(shift_amt),
        BinOp::LShr => lu.wrapping_shr(shift_amt),
        BinOp::AShr => (ls >> shift_amt) as u64,
        _ => unreachable!(),
    };
    Ok(v & ty.mask())
}

/// Evaluate an integer comparison on raw bits.
#[inline]
pub fn eval_icmp(pred: ICmp, l: u64, r: u64, ty: Ty) -> bool {
    let ls = sext_bits(l, ty);
    let rs = sext_bits(r, ty);
    let lu = zext_bits(l, ty);
    let ru = zext_bits(r, ty);
    match pred {
        ICmp::Eq => lu == ru,
        ICmp::Ne => lu != ru,
        ICmp::Slt => ls < rs,
        ICmp::Sle => ls <= rs,
        ICmp::Sgt => ls > rs,
        ICmp::Sge => ls >= rs,
        ICmp::Ult => lu < ru,
        ICmp::Ule => lu <= ru,
        ICmp::Ugt => lu > ru,
        ICmp::Uge => lu >= ru,
    }
}

/// Evaluate an ordered float comparison.
#[inline]
pub fn eval_fcmp(pred: FCmp, l: f64, r: f64) -> bool {
    match pred {
        FCmp::Oeq => l == r,
        FCmp::One => l != r && !l.is_nan() && !r.is_nan(),
        FCmp::Olt => l < r,
        FCmp::Ole => l <= r,
        FCmp::Ogt => l > r,
        FCmp::Oge => l >= r,
    }
}

/// Evaluate a conversion on raw bits.
#[inline]
pub fn eval_cast(op: CastOp, v: u64, from: Ty, to: Ty) -> u64 {
    match op {
        CastOp::Sext => (sext_bits(v, from) as u64) & to.mask(),
        CastOp::Zext => zext_bits(v, from) & to.mask(),
        CastOp::Trunc => v & to.mask(),
        CastOp::SiToFp => bits_of_float(sext_bits(v, from) as f64, to),
        CastOp::FpToSi => {
            let f = float_of_bits(v, from);
            let i =
                if f.is_nan() { 0i64 } else { f.max(i64::MIN as f64).min(i64::MAX as f64) as i64 };
            (i as u64) & to.mask()
        }
        CastOp::FpExt => float_of_bits(v, from).to_bits(),
        CastOp::FpTrunc => bits_of_float(float_of_bits(v, from), to),
        CastOp::PtrToInt | CastOp::IntToPtr => v & to.mask(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::mem::PagedMemory;

    const STACK_BASE: u64 = 0x7f00_0000_0000;
    const STACK_LIMIT: u64 = 0x7f00_0100_0000;
    const HEAP_BASE: u64 = 0x6000_0000_0000;

    fn run(module: &Module, func: &str, args: &[u64]) -> ExecResult<Option<u64>> {
        let mut mem = PagedMemory::new();
        let globals = layout_globals(module, &mut mem, 0x1000_0000);
        let mut interp = Interp::new(
            module,
            &mut mem,
            &globals,
            STACK_BASE,
            STACK_LIMIT,
            HEAP_BASE,
            100_000_000,
        );
        let fid = module.func_by_name(func).unwrap();
        interp.call(fid, args)
    }

    #[test]
    fn arithmetic_loop_sums() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("tri", vec![Ty::I64], Some(Ty::I64), |fb| {
            let acc = fb.alloca(Ty::I64, 1);
            fb.store(Value::i64(0), acc);
            fb.for_loop(Value::i64(1), fb.arg(0), |fb, iv| {
                let a = fb.load(acc, Ty::I64);
                let s = fb.add(a, iv, Ty::I64);
                fb.store(s, acc);
            });
            let r = fb.load(acc, Ty::I64);
            fb.ret(Some(r));
        });
        let m = mb.finish();
        // sum 1..10 = 45
        assert_eq!(run(&m, "tri", &[10]).unwrap(), Some(45));
    }

    #[test]
    fn global_array_stencil() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let g = mb.global_init(
            "data",
            Ty::F64,
            4,
            crate::module::GlobalInit::F64s(vec![1.0, 2.0, 3.0, 4.0]),
        );
        mb.define("sum2", vec![Ty::I64], Some(Ty::F64), |fb| {
            let base = fb.global(g);
            let a = fb.load_elem(base, fb.arg(0), Ty::F64);
            let i1 = fb.add(fb.arg(0), Value::i64(1), Ty::I64);
            let b = fb.load_elem(base, i1, Ty::F64);
            let s = fb.fadd(a, b, Ty::F64);
            fb.ret(Some(s));
        });
        let m = mb.finish();
        let bits = run(&m, "sum2", &[1]).unwrap().unwrap();
        assert_eq!(f64::from_bits(bits), 5.0);
    }

    #[test]
    fn out_of_bounds_faults_as_segv() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let g = mb.global_zeroed("data", Ty::F64, 8);
        mb.define("oob", vec![Ty::I64], Some(Ty::F64), |fb| {
            let v = fb.load_elem(fb.global(g), fb.arg(0), Ty::F64);
            fb.ret(Some(v));
        });
        let m = mb.finish();
        // Far past the guard page.
        let err = run(&m, "oob", &[1_000_000]).unwrap_err();
        assert!(matches!(err.kind, FaultKind::Segv(_)));
        assert!(err.loc.is_some());
    }

    #[test]
    fn misaligned_access_is_bus() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let g = mb.global_zeroed("data", Ty::F64, 8);
        mb.define("mis", vec![], Some(Ty::F64), |fb| {
            let p = fb.global(g);
            let pi = fb.cast(CastOp::PtrToInt, p, Ty::I64);
            let off = fb.add(pi, Value::i64(3), Ty::I64);
            let p2 = fb.cast(CastOp::IntToPtr, off, Ty::Ptr);
            let v = fb.load(p2, Ty::F64);
            fb.ret(Some(v));
        });
        let m = mb.finish();
        let err = run(&m, "mis", &[]).unwrap_err();
        assert!(matches!(err.kind, FaultKind::Bus(_)));
    }

    #[test]
    fn divide_by_zero_is_fpe() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("div", vec![Ty::I64, Ty::I64], Some(Ty::I64), |fb| {
            let q = fb.sdiv(fb.arg(0), fb.arg(1), Ty::I64);
            fb.ret(Some(q));
        });
        let m = mb.finish();
        assert_eq!(run(&m, "div", &[10, 2]).unwrap(), Some(5));
        assert_eq!(run(&m, "div", &[10, 0]).unwrap_err().kind, FaultKind::Fpe);
    }

    #[test]
    fn failed_assert_aborts() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("chk", vec![Ty::I64], None, |fb| {
            let ok = fb.icmp(ICmp::Slt, fb.arg(0), Value::i64(100));
            fb.assert_cond(ok);
            fb.ret(None);
        });
        let m = mb.finish();
        assert!(run(&m, "chk", &[5]).is_ok());
        assert_eq!(run(&m, "chk", &[500]).unwrap_err().kind, FaultKind::Abort);
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("spin", vec![], None, |fb| {
            let bb = fb.new_block("spin");
            fb.br(bb);
            fb.switch_to(bb);
            fb.br(bb);
        });
        let m = mb.finish();
        let mut mem = PagedMemory::new();
        let globals = layout_globals(&m, &mut mem, 0x1000_0000);
        let mut interp =
            Interp::new(&m, &mut mem, &globals, STACK_BASE, STACK_LIMIT, HEAP_BASE, 10_000);
        let fid = m.func_by_name("spin").unwrap();
        assert_eq!(interp.call(fid, &[]).unwrap_err().kind, FaultKind::OutOfFuel);
    }

    #[test]
    fn recursion_and_calls() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let fact = mb.declare("fact", vec![Ty::I64], Some(Ty::I64));
        mb.define("fact", vec![Ty::I64], Some(Ty::I64), |fb| {
            let is_base = fb.icmp(ICmp::Sle, fb.arg(0), Value::i64(1));
            let ret_slot = fb.alloca(Ty::I64, 1);
            fb.if_then_else(
                is_base,
                |fb| fb.store(Value::i64(1), ret_slot),
                |fb| {
                    let n1 = fb.sub(fb.arg(0), Value::i64(1), Ty::I64);
                    let sub = fb.call(fact, vec![n1]);
                    let v = fb.mul(fb.arg(0), sub, Ty::I64);
                    fb.store(v, ret_slot);
                },
            );
            let r = fb.load(ret_slot, Ty::I64);
            fb.ret(Some(r));
        });
        let m = mb.finish();
        assert_eq!(run(&m, "fact", &[6]).unwrap(), Some(720));
    }

    #[test]
    fn intrinsics_and_float_math() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("hyp", vec![Ty::F64, Ty::F64], Some(Ty::F64), |fb| {
            let a2 = fb.fmul(fb.arg(0), fb.arg(0), Ty::F64);
            let b2 = fb.fmul(fb.arg(1), fb.arg(1), Ty::F64);
            let s = fb.fadd(a2, b2, Ty::F64);
            let r = fb.sqrt(s);
            fb.ret(Some(r));
        });
        let m = mb.finish();
        let bits = run(&m, "hyp", &[3.0f64.to_bits(), 4.0f64.to_bits()]).unwrap().unwrap();
        assert_eq!(f64::from_bits(bits), 5.0);
    }

    #[test]
    fn malloc_returns_usable_guarded_memory() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("heap", vec![], Some(Ty::I64), |fb| {
            let p = fb.intrinsic(Intrinsic::Malloc, vec![Value::i64(64)]);
            fb.store_elem(Value::i64(77), p, Value::i64(3), Ty::I64);
            let v = fb.load_elem(p, Value::i64(3), Ty::I64);
            fb.ret(Some(v));
        });
        let m = mb.finish();
        assert_eq!(run(&m, "heap", &[]).unwrap(), Some(77));
    }

    #[test]
    fn bit_helpers() {
        assert_eq!(sext_bits(0xff, Ty::I8), -1);
        assert_eq!(sext_bits(0x7f, Ty::I8), 127);
        assert_eq!(zext_bits(0xffff_ffff_ffff_ffff, Ty::I32), 0xffff_ffff);
        assert_eq!(eval_bin(BinOp::Add, 0xffff_ffff, 1, Ty::I32).unwrap(), 0);
        assert_eq!(eval_bin(BinOp::AShr, 0x8000_0000, 31, Ty::I32).unwrap(), 0xffff_ffff);
        assert!(eval_icmp(ICmp::Slt, 0xffff_ffff, 0, Ty::I32) /* -1 < 0 */);
        assert!(!eval_icmp(ICmp::Ult, 0xffff_ffff, 0, Ty::I32));
        assert_eq!(eval_cast(CastOp::Sext, 0x80, Ty::I8, Ty::I64), 0xffff_ffff_ffff_ff80);
    }
}
