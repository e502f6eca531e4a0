//! Instruction kinds and operand access.

use crate::debugloc::DebugLoc;
use crate::types::Ty;
use crate::value::{BlockId, FuncId, Value};

/// Integer and floating-point binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    SDiv,
    UDiv,
    SRem,
    URem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
    FAdd,
    FSub,
    FMul,
    FDiv,
}

impl BinOp {
    /// True for the floating-point operators.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// Textual mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::UDiv => "udiv",
            BinOp::SRem => "srem",
            BinOp::URem => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
        }
    }

    /// Parse a mnemonic.
    pub fn parse(s: &str) -> Option<BinOp> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "sdiv" => BinOp::SDiv,
            "udiv" => BinOp::UDiv,
            "srem" => BinOp::SRem,
            "urem" => BinOp::URem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "lshr" => BinOp::LShr,
            "ashr" => BinOp::AShr,
            "fadd" => BinOp::FAdd,
            "fsub" => BinOp::FSub,
            "fmul" => BinOp::FMul,
            "fdiv" => BinOp::FDiv,
            _ => return None,
        })
    }
}

/// Integer comparison predicates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ICmp {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
}

impl ICmp {
    /// Textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ICmp::Eq => "eq",
            ICmp::Ne => "ne",
            ICmp::Slt => "slt",
            ICmp::Sle => "sle",
            ICmp::Sgt => "sgt",
            ICmp::Sge => "sge",
            ICmp::Ult => "ult",
            ICmp::Ule => "ule",
            ICmp::Ugt => "ugt",
            ICmp::Uge => "uge",
        }
    }

    /// Parse a mnemonic.
    pub fn parse(s: &str) -> Option<ICmp> {
        Some(match s {
            "eq" => ICmp::Eq,
            "ne" => ICmp::Ne,
            "slt" => ICmp::Slt,
            "sle" => ICmp::Sle,
            "sgt" => ICmp::Sgt,
            "sge" => ICmp::Sge,
            "ult" => ICmp::Ult,
            "ule" => ICmp::Ule,
            "ugt" => ICmp::Ugt,
            "uge" => ICmp::Uge,
            _ => return None,
        })
    }
}

/// Floating-point comparison predicates (ordered comparisons only; NaN
/// compares false, matching LLVM's `o*` predicates).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FCmp {
    Oeq,
    One,
    Olt,
    Ole,
    Ogt,
    Oge,
}

impl FCmp {
    /// Textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FCmp::Oeq => "oeq",
            FCmp::One => "one",
            FCmp::Olt => "olt",
            FCmp::Ole => "ole",
            FCmp::Ogt => "ogt",
            FCmp::Oge => "oge",
        }
    }

    /// Parse a mnemonic.
    pub fn parse(s: &str) -> Option<FCmp> {
        Some(match s {
            "oeq" => FCmp::Oeq,
            "one" => FCmp::One,
            "olt" => FCmp::Olt,
            "ole" => FCmp::Ole,
            "ogt" => FCmp::Ogt,
            "oge" => FCmp::Oge,
            _ => return None,
        })
    }
}

/// Conversion operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CastOp {
    /// Sign-extend an integer.
    Sext,
    /// Zero-extend an integer.
    Zext,
    /// Truncate an integer.
    Trunc,
    /// Signed int -> float.
    SiToFp,
    /// Float -> signed int (round toward zero).
    FpToSi,
    /// f32 -> f64.
    FpExt,
    /// f64 -> f32.
    FpTrunc,
    /// Pointer -> i64.
    PtrToInt,
    /// i64 -> pointer.
    IntToPtr,
}

impl CastOp {
    /// Textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::Sext => "sext",
            CastOp::Zext => "zext",
            CastOp::Trunc => "trunc",
            CastOp::SiToFp => "sitofp",
            CastOp::FpToSi => "fptosi",
            CastOp::FpExt => "fpext",
            CastOp::FpTrunc => "fptrunc",
            CastOp::PtrToInt => "ptrtoint",
            CastOp::IntToPtr => "inttoptr",
        }
    }

    /// Parse a mnemonic.
    pub fn parse(s: &str) -> Option<CastOp> {
        Some(match s {
            "sext" => CastOp::Sext,
            "zext" => CastOp::Zext,
            "trunc" => CastOp::Trunc,
            "sitofp" => CastOp::SiToFp,
            "fptosi" => CastOp::FpToSi,
            "fpext" => CastOp::FpExt,
            "fptrunc" => CastOp::FpTrunc,
            "ptrtoint" => CastOp::PtrToInt,
            "inttoptr" => CastOp::IntToPtr,
            _ => return None,
        })
    }
}

/// Built-in math/runtime intrinsics.
///
/// The paper's Armor treats calls to "simple math operators, e.g. `sqrt`" as
/// ordinary binary instructions (extraction continues through them), while
/// "complex" calls terminate extraction. TinyIR models both classes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Intrinsic {
    /// `f64 sqrt(f64)` — pure, extraction-transparent.
    Sqrt,
    /// `f64 fabs(f64)` — pure.
    Fabs,
    /// `f64 sin(f64)` — pure.
    Sin,
    /// `f64 cos(f64)` — pure.
    Cos,
    /// `f64 exp(f64)` — pure.
    Exp,
    /// `f64 floor(f64)` — pure.
    Floor,
    /// `f64 pow(f64, f64)` — pure.
    Pow,
    /// `i64 imin(i64, i64)` — pure.
    IMin,
    /// `i64 imax(i64, i64)` — pure.
    IMax,
    /// `f64 fmin(f64, f64)` — pure.
    FMin,
    /// `f64 fmax(f64, f64)` — pure.
    FMax,
    /// `void assert(i1)` — aborts the process (`SIGABRT`) when the condition
    /// is false; models application-level sanity checks (GTC-P bounds tests).
    Assert,
    /// `void abort()` — unconditional `SIGABRT`.
    Abort,
    /// `ptr malloc(i64)` — heap allocation; "complex" (terminates extraction).
    Malloc,
    /// `void free(ptr)` — heap release; "complex".
    Free,
}

impl Intrinsic {
    /// True for intrinsics that Armor may treat as a plain arithmetic
    /// operator (pure, no memory side effects, no allocation).
    #[inline]
    pub fn is_simple_math(self) -> bool {
        matches!(
            self,
            Intrinsic::Sqrt
                | Intrinsic::Fabs
                | Intrinsic::Sin
                | Intrinsic::Cos
                | Intrinsic::Exp
                | Intrinsic::Floor
                | Intrinsic::Pow
                | Intrinsic::IMin
                | Intrinsic::IMax
                | Intrinsic::FMin
                | Intrinsic::FMax
        )
    }

    /// Number of arguments the intrinsic expects.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Sqrt
            | Intrinsic::Fabs
            | Intrinsic::Sin
            | Intrinsic::Cos
            | Intrinsic::Exp
            | Intrinsic::Floor
            | Intrinsic::Assert
            | Intrinsic::Free
            | Intrinsic::Malloc => 1,
            Intrinsic::Pow
            | Intrinsic::IMin
            | Intrinsic::IMax
            | Intrinsic::FMin
            | Intrinsic::FMax => 2,
            Intrinsic::Abort => 0,
        }
    }

    /// Result type, if any.
    pub fn ret_ty(self) -> Option<Ty> {
        match self {
            Intrinsic::Sqrt
            | Intrinsic::Fabs
            | Intrinsic::Sin
            | Intrinsic::Cos
            | Intrinsic::Exp
            | Intrinsic::Floor
            | Intrinsic::Pow
            | Intrinsic::FMin
            | Intrinsic::FMax => Some(Ty::F64),
            Intrinsic::IMin | Intrinsic::IMax => Some(Ty::I64),
            Intrinsic::Malloc => Some(Ty::Ptr),
            Intrinsic::Assert | Intrinsic::Abort | Intrinsic::Free => None,
        }
    }

    /// Textual name used by the printer/parser.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Fabs => "fabs",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Exp => "exp",
            Intrinsic::Floor => "floor",
            Intrinsic::Pow => "pow",
            Intrinsic::IMin => "imin",
            Intrinsic::IMax => "imax",
            Intrinsic::FMin => "fmin",
            Intrinsic::FMax => "fmax",
            Intrinsic::Assert => "assert",
            Intrinsic::Abort => "abort",
            Intrinsic::Malloc => "malloc",
            Intrinsic::Free => "free",
        }
    }

    /// Parse a textual name.
    pub fn parse(s: &str) -> Option<Intrinsic> {
        Some(match s {
            "sqrt" => Intrinsic::Sqrt,
            "fabs" => Intrinsic::Fabs,
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "exp" => Intrinsic::Exp,
            "floor" => Intrinsic::Floor,
            "pow" => Intrinsic::Pow,
            "imin" => Intrinsic::IMin,
            "imax" => Intrinsic::IMax,
            "fmin" => Intrinsic::FMin,
            "fmax" => Intrinsic::FMax,
            "assert" => Intrinsic::Assert,
            "abort" => Intrinsic::Abort,
            "malloc" => Intrinsic::Malloc,
            "free" => Intrinsic::Free,
            _ => return None,
        })
    }
}

/// Call target: an ordinary module function or a built-in intrinsic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Callee {
    /// A function defined in (or imported into) the module.
    Func(FuncId),
    /// A built-in intrinsic.
    Intrinsic(Intrinsic),
}

/// A TinyIR instruction.
///
/// The instruction is stored in a per-function arena; its id is the
/// [`crate::InstrId`] index into that arena. The result value (if any) is
/// referenced as `Value::Instr(id)`.
#[derive(Clone, PartialEq, Debug)]
pub enum InstrKind {
    /// Stack allocation of `count` elements of `elem_ty`; yields a `Ptr`.
    Alloca { elem_ty: Ty, count: u32 },
    /// Load a `ty` value from `ptr`.
    Load { ptr: Value, ty: Ty },
    /// Store `val` to `ptr`.
    Store { val: Value, ptr: Value },
    /// Address arithmetic: `base + index * elem_size` (bytes); yields `Ptr`.
    ///
    /// Chained `Gep`s plus integer arithmetic reproduce the multi-operation
    /// address computations of Table 5.
    Gep { base: Value, index: Value, elem_size: u32 },
    /// Binary arithmetic/logic.
    Bin { op: BinOp, lhs: Value, rhs: Value, ty: Ty },
    /// Integer comparison; yields `I1`.
    Icmp { pred: ICmp, lhs: Value, rhs: Value },
    /// Float comparison; yields `I1`.
    Fcmp { pred: FCmp, lhs: Value, rhs: Value },
    /// Conversion.
    Cast { op: CastOp, val: Value, to: Ty },
    /// `cond ? t : f`.
    Select { cond: Value, t: Value, f: Value, ty: Ty },
    /// SSA phi node.
    Phi { incomings: Vec<(BlockId, Value)>, ty: Ty },
    /// Function or intrinsic call.
    Call { callee: Callee, args: Vec<Value>, ret_ty: Option<Ty> },
    /// Unconditional branch.
    Br { target: BlockId },
    /// Conditional branch.
    CondBr { cond: Value, then_bb: BlockId, else_bb: BlockId },
    /// Return, with optional value.
    Ret { val: Option<Value> },
}

/// An instruction together with its metadata (debug location).
#[derive(Clone, PartialEq, Debug)]
pub struct Instr {
    /// What the instruction does.
    pub kind: InstrKind,
    /// Source location `(file, line, col)` — the CARE recovery-table key for
    /// memory-access instructions.
    pub loc: Option<DebugLoc>,
}

impl Instr {
    /// Create an instruction with no debug location.
    pub fn new(kind: InstrKind) -> Instr {
        Instr { kind, loc: None }
    }

    /// Result type of the instruction, `None` for void instructions
    /// (stores, branches, returns, void calls).
    pub fn result_ty(&self) -> Option<Ty> {
        match &self.kind {
            InstrKind::Alloca { .. } | InstrKind::Gep { .. } => Some(Ty::Ptr),
            InstrKind::Load { ty, .. } => Some(*ty),
            InstrKind::Bin { ty, .. }
            | InstrKind::Select { ty, .. }
            | InstrKind::Phi { ty, .. } => Some(*ty),
            InstrKind::Icmp { .. } | InstrKind::Fcmp { .. } => Some(Ty::I1),
            InstrKind::Cast { to, .. } => Some(*to),
            InstrKind::Call { ret_ty, .. } => *ret_ty,
            InstrKind::Store { .. }
            | InstrKind::Br { .. }
            | InstrKind::CondBr { .. }
            | InstrKind::Ret { .. } => None,
        }
    }

    /// True if this is a block terminator.
    pub fn is_terminator(&self) -> bool {
        matches!(self.kind, InstrKind::Br { .. } | InstrKind::CondBr { .. } | InstrKind::Ret { .. })
    }

    /// True if this instruction reads or writes memory.
    pub fn is_mem_access(&self) -> bool {
        matches!(self.kind, InstrKind::Load { .. } | InstrKind::Store { .. })
    }

    /// The address operand of a load/store, if this is a memory access.
    pub fn addr_operand(&self) -> Option<Value> {
        match &self.kind {
            InstrKind::Load { ptr, .. } => Some(*ptr),
            InstrKind::Store { ptr, .. } => Some(*ptr),
            _ => None,
        }
    }

    /// All value operands, in a fixed order.
    pub fn operands(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.for_each_operand(|v| out.push(v));
        out
    }

    /// Call `f` on every value operand, in a fixed order, without
    /// collecting them.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match &self.kind {
            InstrKind::Alloca { .. } | InstrKind::Br { .. } => {}
            InstrKind::Load { ptr: v, .. }
            | InstrKind::Cast { val: v, .. }
            | InstrKind::CondBr { cond: v, .. } => f(*v),
            InstrKind::Store { val: a, ptr: b }
            | InstrKind::Gep { base: a, index: b, .. }
            | InstrKind::Bin { lhs: a, rhs: b, .. }
            | InstrKind::Icmp { lhs: a, rhs: b, .. }
            | InstrKind::Fcmp { lhs: a, rhs: b, .. } => {
                f(*a);
                f(*b);
            }
            InstrKind::Select { cond, t, f: fv, .. } => {
                f(*cond);
                f(*t);
                f(*fv);
            }
            InstrKind::Phi { incomings, .. } => incomings.iter().for_each(|(_, v)| f(*v)),
            InstrKind::Call { args, .. } => args.iter().for_each(|a| f(*a)),
            InstrKind::Ret { val } => val.iter().for_each(|v| f(*v)),
        }
    }

    /// Apply `f` to every value operand in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match &mut self.kind {
            InstrKind::Alloca { .. } | InstrKind::Br { .. } => {}
            InstrKind::Load { ptr, .. } => *ptr = f(*ptr),
            InstrKind::Store { val, ptr } => {
                *val = f(*val);
                *ptr = f(*ptr);
            }
            InstrKind::Gep { base, index, .. } => {
                *base = f(*base);
                *index = f(*index);
            }
            InstrKind::Bin { lhs, rhs, .. }
            | InstrKind::Icmp { lhs, rhs, .. }
            | InstrKind::Fcmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            InstrKind::Cast { val, .. } => *val = f(*val),
            InstrKind::Select { cond, t, f: fv, .. } => {
                *cond = f(*cond);
                *t = f(*t);
                *fv = f(*fv);
            }
            InstrKind::Phi { incomings, .. } => {
                for (_, v) in incomings {
                    *v = f(*v);
                }
            }
            InstrKind::Call { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            InstrKind::CondBr { cond, .. } => *cond = f(*cond),
            InstrKind::Ret { val } => {
                if let Some(v) = val {
                    *v = f(*v);
                }
            }
        }
    }

    /// Successor blocks for a terminator (empty for non-terminators / ret).
    pub fn successors(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.for_each_successor(|b| out.push(b));
        out
    }

    /// Call `f` on every successor block, in [`Instr::successors`]'s order,
    /// without collecting them.
    pub fn for_each_successor(&self, mut f: impl FnMut(BlockId)) {
        match &self.kind {
            InstrKind::Br { target } => f(*target),
            InstrKind::CondBr { then_bb, else_bb, .. } => {
                f(*then_bb);
                f(*else_bb);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::InstrId;

    #[test]
    fn result_types() {
        let gep =
            Instr::new(InstrKind::Gep { base: Value::Arg(0), index: Value::i64(1), elem_size: 8 });
        assert_eq!(gep.result_ty(), Some(Ty::Ptr));
        let st = Instr::new(InstrKind::Store { val: Value::f64(0.0), ptr: Value::Arg(0) });
        assert_eq!(st.result_ty(), None);
        assert!(st.is_mem_access());
        assert_eq!(st.addr_operand(), Some(Value::Arg(0)));
    }

    #[test]
    fn operand_listing_and_mapping() {
        let mut sel = Instr::new(InstrKind::Select {
            cond: Value::Instr(InstrId(0)),
            t: Value::Instr(InstrId(1)),
            f: Value::Instr(InstrId(2)),
            ty: Ty::I64,
        });
        assert_eq!(sel.operands().len(), 3);
        sel.map_operands(|v| match v {
            Value::Instr(InstrId(n)) => Value::Instr(InstrId(n + 10)),
            other => other,
        });
        assert_eq!(
            sel.operands(),
            vec![Value::Instr(InstrId(10)), Value::Instr(InstrId(11)), Value::Instr(InstrId(12))]
        );
    }

    #[test]
    fn terminators_and_successors() {
        let br = Instr::new(InstrKind::Br { target: BlockId(3) });
        assert!(br.is_terminator());
        assert_eq!(br.successors(), vec![BlockId(3)]);
        let ret = Instr::new(InstrKind::Ret { val: None });
        assert!(ret.is_terminator());
        assert!(ret.successors().is_empty());
    }

    #[test]
    fn intrinsic_classification() {
        assert!(Intrinsic::Sqrt.is_simple_math());
        assert!(!Intrinsic::Malloc.is_simple_math());
        assert!(!Intrinsic::Assert.is_simple_math());
        assert_eq!(Intrinsic::Pow.arity(), 2);
        assert_eq!(Intrinsic::Abort.arity(), 0);
    }

    #[test]
    fn mnemonic_round_trips() {
        for op in [BinOp::Add, BinOp::FMul, BinOp::AShr, BinOp::SRem, BinOp::UDiv] {
            assert_eq!(BinOp::parse(op.mnemonic()), Some(op));
        }
        for p in [ICmp::Slt, ICmp::Uge, ICmp::Eq] {
            assert_eq!(ICmp::parse(p.mnemonic()), Some(p));
        }
        for c in [CastOp::Sext, CastOp::IntToPtr, CastOp::FpTrunc] {
            assert_eq!(CastOp::parse(c.mnemonic()), Some(c));
        }
        for i in [Intrinsic::Sqrt, Intrinsic::Assert, Intrinsic::Malloc] {
            assert_eq!(Intrinsic::parse(i.name()), Some(i));
        }
    }
}
