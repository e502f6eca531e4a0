//! Ergonomic construction of TinyIR modules and functions.
//!
//! The workloads crate builds its scientific kernels through this API. The
//! builder assigns every emitted instruction a unique, synthetic
//! `(file, line, col)` debug location, mirroring Armor's fake-debug-data
//! path (paper §3.3) so that every memory access has a distinct
//! recovery-table key without requiring `-g`.

use crate::debugloc::{DebugLoc, FileId};
use crate::instr::{BinOp, Callee, CastOp, FCmp, ICmp, Instr, InstrKind, Intrinsic};
use crate::module::{Function, Global, GlobalInit, Module};
use crate::types::Ty;
use crate::value::{BlockId, FuncId, GlobalId, Value};

/// Builds a [`Module`], interning globals and function declarations before
/// their bodies exist so that calls can be emitted in any order.
pub struct ModuleBuilder {
    module: Module,
    file: FileId,
    next_line: u32,
}

impl ModuleBuilder {
    /// Start a module named `name` whose synthetic debug file is `file`.
    pub fn new(name: &str, file: &str) -> ModuleBuilder {
        let mut module = Module::new(name);
        let file = module.intern_file(file);
        ModuleBuilder { module, file, next_line: 1 }
    }

    /// Add a zero-initialised global array of `count` elements.
    pub fn global_zeroed(&mut self, name: &str, elem_ty: Ty, count: u32) -> GlobalId {
        self.module.add_global(Global { name: name.into(), elem_ty, count, init: GlobalInit::Zero })
    }

    /// Add a global with an explicit initialiser.
    pub fn global_init(
        &mut self,
        name: &str,
        elem_ty: Ty,
        count: u32,
        init: GlobalInit,
    ) -> GlobalId {
        self.module.add_global(Global { name: name.into(), elem_ty, count, init })
    }

    /// Pre-declare a function so it can be called before its body is built.
    pub fn declare(&mut self, name: &str, params: Vec<Ty>, ret_ty: Option<Ty>) -> FuncId {
        let mut f = Function::new(name, params, ret_ty);
        f.is_decl = true;
        self.module.add_func(f)
    }

    /// Build (or fill in a pre-declared) function via a closure over a
    /// [`FuncBuilder`].
    pub fn define(
        &mut self,
        name: &str,
        params: Vec<Ty>,
        ret_ty: Option<Ty>,
        body: impl FnOnce(&mut FuncBuilder<'_>),
    ) -> FuncId {
        let id = match self.module.func_by_name(name) {
            Some(id) => {
                let f = self.module.func_mut(id);
                assert!(f.is_decl, "function {name} already defined");
                f.params = params;
                f.ret_ty = ret_ty;
                f.is_decl = false;
                id
            }
            None => self.module.add_func(Function::new(name, params, ret_ty)),
        };
        // The placeholder keeps the real signature so that recursive calls
        // emitted inside `body` see the correct return type.
        let sig_params = self.module.func(id).params.clone();
        let sig_ret = self.module.func(id).ret_ty;
        let mut placeholder = Function::new("<in-progress>", sig_params, sig_ret);
        placeholder.is_decl = true;
        let mut func = std::mem::replace(self.module.func_mut(id), placeholder);
        func.is_decl = false;
        let cur = func.entry();
        let mut fb = FuncBuilder { mb: self, func, cur, terminated: false };
        body(&mut fb);
        let func = fb.func;
        *self.module.func_mut(id) = func;
        id
    }

    /// Finish and return the module.
    pub fn finish(mut self) -> Module {
        self.module.rebuild_indexes();
        self.module
    }

    fn fresh_loc(&mut self) -> DebugLoc {
        let line = self.next_line;
        self.next_line += 1;
        DebugLoc::new(self.file, line, 1)
    }
}

/// Builds a single function; tracks the "current" block like LLVM's
/// `IRBuilder`.
pub struct FuncBuilder<'m> {
    mb: &'m mut ModuleBuilder,
    func: Function,
    cur: BlockId,
    terminated: bool,
}

impl<'m> FuncBuilder<'m> {
    /// The `n`-th formal argument.
    pub fn arg(&self, n: u32) -> Value {
        assert!((n as usize) < self.func.params.len());
        Value::Arg(n)
    }

    /// The address of a global variable.
    pub fn global(&self, id: GlobalId) -> Value {
        Value::Global(id)
    }

    /// Create a new block (does not move the insertion point).
    pub fn new_block(&mut self, name: &str) -> BlockId {
        self.func.add_block(name)
    }

    /// Move the insertion point.
    pub fn switch_to(&mut self, bb: BlockId) {
        self.cur = bb;
        self.terminated = false;
    }

    fn emit(&mut self, kind: InstrKind) -> Value {
        assert!(!self.terminated, "emitting into a terminated block in {}", self.func.name);
        let loc = self.mb.fresh_loc();
        let instr = Instr { kind, loc: Some(loc) };
        let term = instr.is_terminator();
        let id = self.func.push_instr(self.cur, instr);
        if term {
            self.terminated = true;
        }
        Value::Instr(id)
    }

    // -- memory ----------------------------------------------------------

    /// Stack allocation.
    pub fn alloca(&mut self, elem_ty: Ty, count: u32) -> Value {
        self.emit(InstrKind::Alloca { elem_ty, count })
    }

    /// Load a value of type `ty` from `ptr`.
    pub fn load(&mut self, ptr: Value, ty: Ty) -> Value {
        self.emit(InstrKind::Load { ptr, ty })
    }

    /// Store `val` to `ptr`.
    pub fn store(&mut self, val: Value, ptr: Value) {
        self.emit(InstrKind::Store { val, ptr });
    }

    /// `base + index * elem_size` address arithmetic.
    pub fn gep(&mut self, base: Value, index: Value, elem_size: u32) -> Value {
        self.emit(InstrKind::Gep { base, index, elem_size })
    }

    /// Typed element address: `gep` scaled by `ty.size()`.
    pub fn gep_ty(&mut self, base: Value, index: Value, ty: Ty) -> Value {
        self.gep(base, index, ty.size())
    }

    /// Convenience: load element `idx` of the `ty` array at `base`.
    pub fn load_elem(&mut self, base: Value, idx: Value, ty: Ty) -> Value {
        let p = self.gep_ty(base, idx, ty);
        self.load(p, ty)
    }

    /// Convenience: store `val` to element `idx` of the `ty` array at `base`.
    pub fn store_elem(&mut self, val: Value, base: Value, idx: Value, ty: Ty) {
        let p = self.gep_ty(base, idx, ty);
        self.store(val, p);
    }

    // -- arithmetic --------------------------------------------------------

    /// Generic binary operation of result type `ty`.
    pub fn bin(&mut self, op: BinOp, lhs: Value, rhs: Value, ty: Ty) -> Value {
        self.emit(InstrKind::Bin { op, lhs, rhs, ty })
    }

    /// Integer add (type inferred from lhs where possible, i64 default).
    pub fn add(&mut self, l: Value, r: Value, ty: Ty) -> Value {
        self.bin(BinOp::Add, l, r, ty)
    }
    /// Integer subtract.
    pub fn sub(&mut self, l: Value, r: Value, ty: Ty) -> Value {
        self.bin(BinOp::Sub, l, r, ty)
    }
    /// Integer multiply.
    pub fn mul(&mut self, l: Value, r: Value, ty: Ty) -> Value {
        self.bin(BinOp::Mul, l, r, ty)
    }
    /// Signed divide.
    pub fn sdiv(&mut self, l: Value, r: Value, ty: Ty) -> Value {
        self.bin(BinOp::SDiv, l, r, ty)
    }
    /// Signed remainder.
    pub fn srem(&mut self, l: Value, r: Value, ty: Ty) -> Value {
        self.bin(BinOp::SRem, l, r, ty)
    }
    /// Float add.
    pub fn fadd(&mut self, l: Value, r: Value, ty: Ty) -> Value {
        self.bin(BinOp::FAdd, l, r, ty)
    }
    /// Float subtract.
    pub fn fsub(&mut self, l: Value, r: Value, ty: Ty) -> Value {
        self.bin(BinOp::FSub, l, r, ty)
    }
    /// Float multiply.
    pub fn fmul(&mut self, l: Value, r: Value, ty: Ty) -> Value {
        self.bin(BinOp::FMul, l, r, ty)
    }
    /// Float divide.
    pub fn fdiv(&mut self, l: Value, r: Value, ty: Ty) -> Value {
        self.bin(BinOp::FDiv, l, r, ty)
    }

    /// Integer comparison.
    pub fn icmp(&mut self, pred: ICmp, lhs: Value, rhs: Value) -> Value {
        self.emit(InstrKind::Icmp { pred, lhs, rhs })
    }

    /// Float comparison.
    pub fn fcmp(&mut self, pred: FCmp, lhs: Value, rhs: Value) -> Value {
        self.emit(InstrKind::Fcmp { pred, lhs, rhs })
    }

    /// Conversion.
    pub fn cast(&mut self, op: CastOp, val: Value, to: Ty) -> Value {
        self.emit(InstrKind::Cast { op, val, to })
    }

    /// `sext` shortcut (i32 index -> i64, the idiom in Figure 4's IR).
    pub fn sext(&mut self, val: Value, to: Ty) -> Value {
        self.cast(CastOp::Sext, val, to)
    }

    /// `cond ? t : f`.
    pub fn select(&mut self, cond: Value, t: Value, f: Value, ty: Ty) -> Value {
        self.emit(InstrKind::Select { cond, t, f, ty })
    }

    /// Raw phi node. Prefer [`FuncBuilder::for_loop`] which builds loop phis
    /// for you.
    pub fn phi(&mut self, incomings: Vec<(BlockId, Value)>, ty: Ty) -> Value {
        self.emit(InstrKind::Phi { incomings, ty })
    }

    // -- calls ---------------------------------------------------------------

    /// Call a module function.
    pub fn call(&mut self, callee: FuncId, args: Vec<Value>) -> Value {
        let ret_ty = self.mb.module.func(callee).ret_ty;
        self.emit(InstrKind::Call { callee: Callee::Func(callee), args, ret_ty })
    }

    /// Call an intrinsic.
    pub fn intrinsic(&mut self, which: Intrinsic, args: Vec<Value>) -> Value {
        assert_eq!(args.len(), which.arity(), "intrinsic {:?} arity", which);
        self.emit(InstrKind::Call {
            callee: Callee::Intrinsic(which),
            args,
            ret_ty: which.ret_ty(),
        })
    }

    /// `sqrt` shortcut.
    pub fn sqrt(&mut self, v: Value) -> Value {
        self.intrinsic(Intrinsic::Sqrt, vec![v])
    }

    /// Assert an `i1` condition; traps with `SIGABRT` when false.
    pub fn assert_cond(&mut self, cond: Value) {
        self.intrinsic(Intrinsic::Assert, vec![cond]);
    }

    // -- control flow --------------------------------------------------------

    /// Unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.emit(InstrKind::Br { target });
    }

    /// Conditional branch.
    pub fn cond_br(&mut self, cond: Value, then_bb: BlockId, else_bb: BlockId) {
        self.emit(InstrKind::CondBr { cond, then_bb, else_bb });
    }

    /// Return.
    pub fn ret(&mut self, val: Option<Value>) {
        self.emit(InstrKind::Ret { val });
    }

    /// Structured counted loop: `for iv in start..end { body }` with an
    /// `i64` induction variable. Returns nothing; leaves the insertion point
    /// in the exit block.
    ///
    /// The loop phi/increment/compare it emits is exactly the pattern whose
    /// in-place register update makes induction variables unrecoverable for
    /// CARE under `-O1` (paper §5.6).
    pub fn for_loop(
        &mut self,
        start: Value,
        end: Value,
        body: impl FnOnce(&mut FuncBuilder<'_>, Value),
    ) {
        self.for_loop_step(start, end, Value::i64(1), body)
    }

    /// Counted loop with an explicit step.
    pub fn for_loop_step(
        &mut self,
        start: Value,
        end: Value,
        step: Value,
        body: impl FnOnce(&mut FuncBuilder<'_>, Value),
    ) {
        let pre = self.cur;
        let header = self.new_block("loop.header");
        let body_bb = self.new_block("loop.body");
        let exit = self.new_block("loop.exit");
        self.br(header);

        self.switch_to(header);
        let iv = self.phi(vec![(pre, start)], Ty::I64);
        let cond = self.icmp(ICmp::Slt, iv, end);
        self.cond_br(cond, body_bb, exit);

        self.switch_to(body_bb);
        body(self, iv);
        // The body may have moved the insertion point (nested loops); the
        // block we are now in is the latch.
        let latch = self.cur;
        let next = self.add(iv, step, Ty::I64);
        self.br(header);

        // Patch the phi with the latch incoming.
        if let InstrKind::Phi { incomings, .. } =
            &mut self.func.instr_mut(iv.as_instr().unwrap()).kind
        {
            incomings.push((latch, next));
        }
        self.switch_to(exit);
    }

    /// Structured `if (cond) { then }`; leaves the insertion point in the
    /// join block.
    pub fn if_then(&mut self, cond: Value, then: impl FnOnce(&mut FuncBuilder<'_>)) {
        let then_bb = self.new_block("if.then");
        let join = self.new_block("if.join");
        self.cond_br(cond, then_bb, join);
        self.switch_to(then_bb);
        then(self);
        if !self.terminated {
            self.br(join);
        }
        self.switch_to(join);
    }

    /// Structured `if (cond) { then } else { els }`.
    pub fn if_then_else(
        &mut self,
        cond: Value,
        then: impl FnOnce(&mut FuncBuilder<'_>),
        els: impl FnOnce(&mut FuncBuilder<'_>),
    ) {
        let then_bb = self.new_block("if.then");
        let else_bb = self.new_block("if.else");
        let join = self.new_block("if.join");
        self.cond_br(cond, then_bb, else_bb);
        self.switch_to(then_bb);
        then(self);
        if !self.terminated {
            self.br(join);
        }
        self.switch_to(else_bb);
        els(self);
        if !self.terminated {
            self.br(join);
        }
        self.switch_to(join);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::value_ty;

    #[test]
    fn build_simple_function() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let fid = mb.define("axpy_elem", vec![Ty::Ptr, Ty::Ptr, Ty::I64, Ty::F64], None, |fb| {
            let x = fb.load_elem(fb.arg(0), fb.arg(2), Ty::F64);
            let ax = fb.fmul(fb.arg(3), x, Ty::F64);
            let y = fb.load_elem(fb.arg(1), fb.arg(2), Ty::F64);
            let s = fb.fadd(ax, y, Ty::F64);
            fb.store_elem(s, fb.arg(1), fb.arg(2), Ty::F64);
            fb.ret(None);
        });
        let m = mb.finish();
        let f = m.func(fid);
        assert_eq!(f.mem_access_instrs().len(), 3);
        // Every instruction got a unique debug location.
        let mut locs: Vec<_> = f.instrs.iter().filter_map(|i| i.loc).collect();
        let n = locs.len();
        locs.sort();
        locs.dedup();
        assert_eq!(locs.len(), n);
    }

    #[test]
    fn for_loop_produces_wellformed_phi() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let fid = mb.define("sum", vec![Ty::Ptr, Ty::I64], Some(Ty::F64), |fb| {
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
        let f = m.func(fid);
        // The loop phi must have two incomings (preheader + latch).
        let phi = f
            .instrs
            .iter()
            .find_map(|i| match &i.kind {
                InstrKind::Phi { incomings, .. } => Some(incomings.len()),
                _ => None,
            })
            .unwrap();
        assert_eq!(phi, 2);
        assert_eq!(value_ty(f, Value::Arg(0)), Some(Ty::Ptr));
    }

    #[test]
    fn declare_then_define() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let callee = mb.declare("helper", vec![Ty::F64], Some(Ty::F64));
        mb.define("caller", vec![Ty::F64], Some(Ty::F64), |fb| {
            let r = fb.call(callee, vec![fb.arg(0)]);
            fb.ret(Some(r));
        });
        mb.define("helper", vec![Ty::F64], Some(Ty::F64), |fb| {
            let r = fb.fmul(fb.arg(0), Value::f64(2.0), Ty::F64);
            fb.ret(Some(r));
        });
        let m = mb.finish();
        assert!(!m.func(callee).is_decl);
    }

    #[test]
    fn if_then_else_joins() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("clamp", vec![Ty::I64], Some(Ty::I64), |fb| {
            let out = fb.alloca(Ty::I64, 1);
            let neg = fb.icmp(ICmp::Slt, fb.arg(0), Value::i64(0));
            fb.if_then_else(neg, |fb| fb.store(Value::i64(0), out), |fb| fb.store(fb.arg(0), out));
            let r = fb.load(out, Ty::I64);
            fb.ret(Some(r));
        });
        let m = mb.finish();
        assert_eq!(m.funcs.len(), 1);
        // 4 blocks: entry, then, else, join.
        assert_eq!(m.funcs[0].blocks.len(), 4);
    }

    #[test]
    #[should_panic(expected = "terminated")]
    fn emitting_after_terminator_panics() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("bad", vec![], None, |fb| {
            fb.ret(None);
            fb.ret(None);
        });
    }
}
