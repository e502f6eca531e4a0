//! SimISA — the simulated CISC instruction set.
//!
//! SimISA is deliberately x86_64-flavoured where it matters to CARE:
//!
//! * memory operands are `disp(base, index, scale)` — the exact shape
//!   Safeguard must disassemble and patch (`mov 8(%rbx,%r8,4), %eax`);
//! * arithmetic instructions may *fold* a memory operand (CISC style), so a
//!   TinyIR `load` can disappear into its consumer during instruction
//!   selection, which is why Armor attaches the load's debug location to the
//!   folded instruction (paper §3.3);
//! * every instruction occupies 4 bytes, giving each a unique PC.
//!
//! The register file has 16 integer registers (`r14` = stack pointer,
//! `r15` = frame pointer) and 16 float registers (`x0..x15`, stored as raw
//! bit patterns).

use tinyir::{BinOp, CastOp, FCmp, FuncId, GlobalId, ICmp, Intrinsic, Ty};

/// A SimISA register. Integer registers are `0..16`, float registers are
/// `16..32` (printed as `x0..x15`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Reg(pub u8);

/// Total number of architectural registers.
pub const NUM_REGS: usize = 32;
/// Stack pointer.
pub const SP: Reg = Reg(14);
/// Frame pointer (DWARF's `DW_OP_breg`-style base for stack locations).
pub const FP: Reg = Reg(15);
/// First float register.
pub const F0: Reg = Reg(16);

impl Reg {
    /// Integer register `n`.
    pub fn gpr(n: u8) -> Reg {
        debug_assert!(n < 16);
        Reg(n)
    }
    /// Float register `n`.
    pub fn fpr(n: u8) -> Reg {
        debug_assert!(n < 16);
        Reg(16 + n)
    }
    /// True for float registers.
    pub fn is_float(self) -> bool {
        self.0 >= 16
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_float() {
            write!(f, "%x{}", self.0 - 16)
        } else if *self == SP {
            write!(f, "%sp")
        } else if *self == FP {
            write!(f, "%fp")
        } else {
            write!(f, "%r{}", self.0)
        }
    }
}

/// An x86-style memory operand: `disp(base, index, scale)` =
/// `*(base + index * scale + disp)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemOp {
    /// Base register.
    pub base: Option<Reg>,
    /// Index register.
    pub index: Option<Reg>,
    /// Scale applied to the index (1, 2, 4 or 8).
    pub scale: u8,
    /// Constant displacement.
    pub disp: i64,
}

impl MemOp {
    /// `disp(base)` operand.
    pub fn base_disp(base: Reg, disp: i64) -> MemOp {
        MemOp { base: Some(base), index: None, scale: 1, disp }
    }

    /// `disp(base, index, scale)` operand.
    pub fn base_index(base: Reg, index: Reg, scale: u8, disp: i64) -> MemOp {
        MemOp { base: Some(base), index: Some(index), scale, disp }
    }

    /// Effective address given a register-read function.
    pub fn effective(&self, read: impl Fn(Reg) -> u64) -> u64 {
        let mut addr = self.disp as u64;
        if let Some(b) = self.base {
            addr = addr.wrapping_add(read(b));
        }
        if let Some(i) = self.index {
            addr = addr.wrapping_add(read(i).wrapping_mul(self.scale as u64));
        }
        addr
    }
}

/// A source operand: register, immediate, folded memory reference, or the
/// link-time address of a global (resolved against the loaded module's
/// global table, modelling RIP-relative data addressing).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Src {
    /// Register.
    Reg(Reg),
    /// Immediate bits.
    Imm(u64),
    /// Folded memory operand (CISC); carries the access size in bytes.
    Mem(MemOp, u8),
    /// Address of a global in the current module.
    Global(GlobalId),
}

/// Branch target: an instruction index within the current function.
pub type Label = u32;

/// A SimISA machine instruction.
///
/// Arithmetic reuses TinyIR's [`BinOp`]/[`ICmp`]/[`FCmp`]/[`CastOp`]
/// semantics (shared with the reference interpreter via
/// `tinyir::interp::eval_*`), which is what makes differential testing of
/// the backend cheap.
#[derive(Clone, PartialEq, Debug)]
pub enum MInst {
    /// `dst <- src` (a load when `src` is memory; `sext` sign-extends
    /// sub-word loads, mirroring `movsx`).
    Mov { dst: Reg, src: Src, size: u8, sext: bool },
    /// `mem <- src` store of the low `size` bytes.
    Store { src: Reg, mem: MemOp, size: u8 },
    /// `dst <- effective_address(mem)` (x86 `lea`).
    Lea { dst: Reg, mem: MemOp },
    /// `dst <- lhs op rhs` (three-address ALU; `rhs` may be folded memory).
    Bin { op: BinOp, dst: Reg, lhs: Reg, rhs: Src, ty: Ty },
    /// `dst <- (lhs pred rhs)` as 0/1.
    Icmp { pred: ICmp, dst: Reg, lhs: Reg, rhs: Src, ty: Ty },
    /// Float compare to 0/1.
    Fcmp { pred: FCmp, dst: Reg, lhs: Reg, rhs: Src, ty: Ty },
    /// Conversion.
    Cast { op: CastOp, dst: Reg, src: Reg, from: Ty, to: Ty },
    /// `dst <- cond ? t : f` (cmov-style).
    Select { dst: Reg, cond: Reg, t: Reg, f: Reg },
    /// Unconditional jump.
    Jmp { target: Label },
    /// Conditional jump on the low bit of `cond`.
    Jnz { cond: Reg, then_t: Label, else_t: Label },
    /// Fetch caller-supplied argument `idx` into `dst` (models the incoming
    /// argument registers of the calling convention).
    GetArg { dst: Reg, idx: u8 },
    /// Call a module function; `args` are evaluated and copied into the
    /// callee's incoming argument slots, the result (if any) lands in `dst`.
    Call { callee: FuncId, args: Vec<Src>, dst: Option<Reg> },
    /// Call a built-in intrinsic.
    CallIntr { which: Intrinsic, args: Vec<Src>, dst: Option<Reg> },
    /// Return (value in `src` if the function returns one).
    Ret { src: Option<Reg> },
}

impl MInst {
    /// The register this instruction writes, if any. This is the
    /// "destination operand" of the fault-injection model for register-
    /// writing instructions; stores corrupt memory and control transfers
    /// corrupt the PC instead (see `faultsim`).
    pub fn dest_reg(&self) -> Option<Reg> {
        match self {
            MInst::Mov { dst, .. }
            | MInst::Lea { dst, .. }
            | MInst::Bin { dst, .. }
            | MInst::Icmp { dst, .. }
            | MInst::Fcmp { dst, .. }
            | MInst::Cast { dst, .. }
            | MInst::Select { dst, .. }
            | MInst::GetArg { dst, .. } => Some(*dst),
            MInst::Call { dst, .. } | MInst::CallIntr { dst, .. } => *dst,
            MInst::Store { .. } | MInst::Jmp { .. } | MInst::Jnz { .. } | MInst::Ret { .. } => None,
        }
    }

    /// The memory operand this instruction dereferences, if any — what
    /// Safeguard's disassembly step recovers ("which operand is referring to
    /// a memory address").
    pub fn mem_operand(&self) -> Option<&MemOp> {
        match self {
            MInst::Mov { src: Src::Mem(m, _), .. } => Some(m),
            MInst::Bin { rhs: Src::Mem(m, _), .. } => Some(m),
            MInst::Icmp { rhs: Src::Mem(m, _), .. } => Some(m),
            MInst::Fcmp { rhs: Src::Mem(m, _), .. } => Some(m),
            MInst::Store { mem, .. } => Some(mem),
            _ => None,
        }
    }

    /// True for control-transfer instructions (their "destination" is the
    /// program counter).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            MInst::Jmp { .. } | MInst::Jnz { .. } | MInst::Call { .. } | MInst::Ret { .. }
        )
    }

    /// Static mnemonic of this instruction's variant — the key the telemetry
    /// instruction-mix histogram buckets by. Derived post-hoc from the golden
    /// run's execution profile, so classifying a workload's mix costs the
    /// simulation loop nothing.
    pub fn kind_name(&self) -> &'static str {
        match self {
            MInst::Mov { .. } => "mov",
            MInst::Store { .. } => "store",
            MInst::Lea { .. } => "lea",
            MInst::Bin { .. } => "bin",
            MInst::Icmp { .. } => "icmp",
            MInst::Fcmp { .. } => "fcmp",
            MInst::Cast { .. } => "cast",
            MInst::Select { .. } => "select",
            MInst::Jmp { .. } => "jmp",
            MInst::Jnz { .. } => "jnz",
            MInst::GetArg { .. } => "getarg",
            MInst::Call { .. } => "call",
            MInst::CallIntr { .. } => "callintr",
            MInst::Ret { .. } => "ret",
        }
    }
}

/// Bytes per encoded instruction (fixed-width encoding).
pub const INST_BYTES: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_address_matches_x86_semantics() {
        let m = MemOp::base_index(Reg::gpr(1), Reg::gpr(2), 8, 16);
        let read = |r: Reg| match r.0 {
            1 => 0x1000u64,
            2 => 3,
            _ => 0,
        };
        assert_eq!(m.effective(read), 0x1000 + 3 * 8 + 16);
    }

    #[test]
    fn effective_address_wraps() {
        let m = MemOp::base_disp(Reg::gpr(1), -8);
        assert_eq!(m.effective(|_| 4), 4u64.wrapping_sub(8));
    }

    #[test]
    fn dest_and_mem_operand_classification() {
        let load = MInst::Mov {
            dst: Reg::gpr(3),
            src: Src::Mem(MemOp::base_disp(FP, -8), 8),
            size: 8,
            sext: false,
        };
        assert_eq!(load.dest_reg(), Some(Reg::gpr(3)));
        assert!(load.mem_operand().is_some());
        let store = MInst::Store { src: Reg::gpr(3), mem: MemOp::base_disp(FP, -8), size: 8 };
        assert_eq!(store.dest_reg(), None);
        assert!(store.mem_operand().is_some());
        let jmp = MInst::Jmp { target: 7 };
        assert!(jmp.is_control());
        assert!(jmp.mem_operand().is_none());
    }

    #[test]
    fn register_display() {
        assert_eq!(Reg::gpr(3).to_string(), "%r3");
        assert_eq!(SP.to_string(), "%sp");
        assert_eq!(FP.to_string(), "%fp");
        assert_eq!(Reg::fpr(2).to_string(), "%x2");
        assert!(Reg::fpr(0).is_float());
        assert!(!Reg::gpr(0).is_float());
    }
}
