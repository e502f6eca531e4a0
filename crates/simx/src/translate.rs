//! Basic-block translation of SimISA into direct-threaded form.
//!
//! The interpreter in `cpu.rs` re-decodes every [`MInst`] on every dynamic
//! execution: each step pattern-matches the full instruction, unpacks
//! `Option<Reg>` memory operands, and re-derives constant properties (does
//! this `Mov` sign-extend? is this `Bin` a 64-bit add?) that were fixed at
//! compile time. This module pays that decode cost **once per static
//! instruction**: a [`TranslatedFunc`] holds one pre-decoded [`Op`] per
//! `MInst`, with
//!
//! * operands flattened (`Option<Reg>` → a `u8` with a [`NO_REG`] sentinel,
//!   folded memory operands → [`PackedMem`]),
//! * constant work folded (sign-extension of immediates, the
//!   64-bit/`f64` fast paths of `eval_bin` specialised into their own
//!   variants),
//! * four instruction *pairs* fused into superinstructions —
//!   compare+branch ([`Op::CmpBr`]), global-base+dependent-load
//!   ([`Op::GloLoad`]), global-base+`f64`-memory-arithmetic
//!   ([`Op::GloFBin`]) and back-to-back register copies ([`Op::MovRR`]) —
//!   and
//! * a per-instruction *steps-to-block-end* table ([`TranslatedFunc::ste`])
//!   so the execution engine can charge fuel per straight-line segment and
//!   only fall back to per-step fuel checks for the final partial block
//!   (see `engine.rs`).
//!
//! A pair is fused only where the fused op runs measurably faster than its
//! two standalone ops. A superinstruction saves one dispatch, but its
//! second half runs only what its op spells out: where the second
//! instruction decodes standalone to a specialised op (`AddQ`, `FAdd`,
//! ...), fusion pays only if the fused op keeps that specialisation, as
//! `GloFBin` keeps `FAddL`/`FMulL`'s. DESIGN.md (*Basic-block translation*)
//! gives each kind's measured gain.
//!
//! Indexing is 1:1 with the instruction stream: `ops[i]` corresponds to
//! `instrs[i]`, and when `(i, i+1)` is fused, `ops[i + 1]` **still holds a
//! translation that starts at `instrs[i + 1]`** — standalone, or itself
//! fused with `i + 2` (a run of register copies). A fused op is only
//! reachable through its first index; entering at `i + 1` (a trap resume
//! re-executing the faulting instruction) runs that op, so the translated
//! program is re-enterable at every PC exactly like the interpreter. Fusion
//! is refused when `i + 1` is a branch target for the same reason.
//!
//! Each [`CompiledEngine`](crate::engine::CompiledEngine) translates the
//! modules of its own image once and owns the result; a campaign builds its
//! engine once, so every trellis fork and suffix of that campaign shares it,
//! and the translation is dropped with the campaign.

use crate::image::{MachineFunction, MachineModule};
use crate::isa::{MInst, MemOp, Src, NUM_REGS};
use std::sync::Arc;
use tinyir::interp::sext_bits;
use tinyir::{BinOp, CastOp, FCmp, ICmp, Intrinsic, Ty};

/// Sentinel for "no register" in flattened operand slots.
pub(crate) const NO_REG: u8 = 0xFF;

/// A [`MemOp`] with the `Option`s flattened out of the hot path.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PackedMem {
    pub base: u8,
    pub index: u8,
    pub scale: u8,
    pub disp: i64,
}

impl PackedMem {
    fn of(m: &MemOp) -> PackedMem {
        PackedMem {
            base: m.base.map_or(NO_REG, |r| r.0),
            index: m.index.map_or(NO_REG, |r| r.0),
            scale: m.scale,
            disp: m.disp,
        }
    }

    /// Effective address; bit-identical to [`MemOp::effective`] (same
    /// operation order, same wrapping arithmetic).
    #[inline(always)]
    pub(crate) fn ea(&self, regs: &[u64; NUM_REGS]) -> u64 {
        let mut addr = self.disp as u64;
        if self.base != NO_REG {
            addr = addr.wrapping_add(regs[self.base as usize]);
        }
        if self.index != NO_REG {
            addr = addr.wrapping_add(regs[self.index as usize].wrapping_mul(self.scale as u64));
        }
        addr
    }
}

/// A pre-decoded [`Src`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum SrcK {
    Reg(u8),
    Imm(u64),
    Mem(PackedMem, u8),
    Global(u32),
}

impl SrcK {
    fn of(s: &Src) -> SrcK {
        match s {
            Src::Reg(r) => SrcK::Reg(r.0),
            Src::Imm(v) => SrcK::Imm(*v),
            Src::Mem(m, size) => SrcK::Mem(PackedMem::of(m), *size),
            Src::Global(g) => SrcK::Global(g.0),
        }
    }
}

/// One direct-threaded operation. Plain variants are 1:1 with [`MInst`]
/// (operands pre-decoded, constant work folded); the specialised variants
/// (`AddQ`/`FMul`/`FAddL`/...) encode properties `eval_bin` would otherwise
/// re-derive per step; the fused variants at the bottom cover two
/// instructions each (and account two fuel steps — see `engine.rs`).
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// `dst <- src` register copy.
    MovR {
        dst: u8,
        src: u8,
    },
    /// `dst <- sext(src)` register copy with sub-word sign extension.
    MovRs {
        dst: u8,
        src: u8,
        ty: Ty,
    },
    /// `dst <- imm` (sign extension already folded into the constant).
    MovI {
        dst: u8,
        imm: u64,
    },
    /// Plain load.
    MovL {
        dst: u8,
        mem: PackedMem,
        size: u8,
    },
    /// Sign-extending load (`movsx`).
    MovLs {
        dst: u8,
        mem: PackedMem,
        size: u8,
        ty: Ty,
    },
    /// `dst <- &global` (with the interpreter's sext quirk preserved).
    MovG {
        dst: u8,
        gid: u32,
        sext: Option<Ty>,
    },
    /// Store of the low `size` bytes of `src`.
    St {
        src: u8,
        mem: PackedMem,
        size: u8,
    },
    /// Effective-address computation.
    Lea {
        dst: u8,
        mem: PackedMem,
    },
    /// 64-bit (`I64`/`Ptr`) add/sub/mul, register or immediate rhs: the
    /// mask and sign-extension of `eval_bin` are identities at this width.
    AddQ {
        dst: u8,
        lhs: u8,
        rhs: u8,
    },
    AddQI {
        dst: u8,
        lhs: u8,
        imm: u64,
    },
    SubQ {
        dst: u8,
        lhs: u8,
        rhs: u8,
    },
    SubQI {
        dst: u8,
        lhs: u8,
        imm: u64,
    },
    MulQ {
        dst: u8,
        lhs: u8,
        rhs: u8,
    },
    /// `f64` arithmetic, register rhs.
    FAdd {
        dst: u8,
        lhs: u8,
        rhs: u8,
    },
    FSub {
        dst: u8,
        lhs: u8,
        rhs: u8,
    },
    FMul {
        dst: u8,
        lhs: u8,
        rhs: u8,
    },
    /// `f64` arithmetic with a folded 8-byte memory rhs (the CISC shape
    /// codegen emits for `load; fadd/fmul` — the inner loop of every dot
    /// product and stencil in the workload suite).
    FAddL {
        dst: u8,
        lhs: u8,
        mem: PackedMem,
    },
    FMulL {
        dst: u8,
        lhs: u8,
        mem: PackedMem,
    },
    /// Everything else: full `eval_bin` semantics (may trap `Fpe`).
    Bin {
        op: BinOp,
        dst: u8,
        lhs: u8,
        rhs: SrcK,
        ty: Ty,
    },
    Icmp {
        pred: ICmp,
        dst: u8,
        lhs: u8,
        rhs: SrcK,
        ty: Ty,
    },
    Fcmp {
        pred: FCmp,
        dst: u8,
        lhs: u8,
        rhs: SrcK,
        ty: Ty,
    },
    Cast {
        op: CastOp,
        dst: u8,
        src: u8,
        from: Ty,
        to: Ty,
    },
    Select {
        dst: u8,
        cond: u8,
        t: u8,
        f: u8,
    },
    Jmp {
        target: u32,
    },
    Jnz {
        cond: u8,
        then_t: u32,
        else_t: u32,
    },
    GetArg {
        dst: u8,
        idx: u8,
    },
    Call {
        callee: u32,
        args: Box<[SrcK]>,
        dst: u8,
    },
    CallIntr {
        which: Intrinsic,
        args: Box<[SrcK]>,
        dst: u8,
    },
    Ret {
        src: u8,
    },
    /// Fused `icmp; jnz` where the branch tests the compare's destination.
    /// Still writes the condition register (later code may read it).
    CmpBr {
        pred: ICmp,
        cdst: u8,
        lhs: u8,
        rhs: SrcK,
        ty: Ty,
        then_t: u32,
        else_t: u32,
    },
    /// Fused `mov gdst, @g; mov ldst, mem` where `mem` addresses through
    /// the freshly materialised global base (the SpMV/gather shape: codegen
    /// reloads the array base from a global right before every indexed
    /// element access).
    GloLoad {
        gdst: u8,
        gid: u32,
        ldst: u8,
        mem: PackedMem,
        size: u8,
    },
    /// Fused `mov gdst, @g; fadd/fmul fdst, lhs, 8(mem)` — the same
    /// global-base reload feeding a folded `f64` memory operand (the
    /// `FAddL`/`FMulL` shape) instead of a plain load.
    GloFBin {
        gdst: u8,
        gid: u32,
        mul: bool,
        fdst: u8,
        lhs: u8,
        mem: PackedMem,
    },
    /// Fused pair of plain full-width register copies (loop-carried
    /// variable rotation: `mov x', x; mov i', i` at the bottom of loops).
    MovRR {
        d1: u8,
        s1: u8,
        d2: u8,
        s2: u8,
    },
}

impl Op {
    /// Dynamic fuel steps this op accounts for (2 for fused pairs).
    #[inline(always)]
    pub(crate) fn cost(&self) -> u32 {
        match self {
            Op::CmpBr { .. } | Op::GloLoad { .. } | Op::GloFBin { .. } | Op::MovRR { .. } => 2,
            _ => 1,
        }
    }

    /// True when executing this op always ends the straight-line segment.
    fn ends_segment(&self) -> bool {
        matches!(
            self,
            Op::Jmp { .. }
                | Op::Jnz { .. }
                | Op::CmpBr { .. }
                | Op::Call { .. }
                | Op::CallIntr { .. }
                | Op::Ret { .. }
        )
    }
}

/// Aggregate translation statistics, surfaced as `engine.*` telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TranslateStats {
    /// Basic blocks discovered (leaders: entry, branch targets, fall-throughs
    /// past a block ender).
    pub blocks: u64,
    /// Total ops emitted (= static instructions translated).
    pub ops: u64,
    /// Fused compare+branch pairs.
    pub fused_cmp_br: u64,
    /// Fused global-base+dependent-memory pairs (`GloLoad` and `GloFBin`).
    pub fused_glo_load: u64,
    /// Fused register-copy pairs (`MovRR`).
    pub fused_mov_mov: u64,
}

impl TranslateStats {
    /// Accumulate another module's stats (for multi-module images).
    pub fn merge(&mut self, other: &TranslateStats) {
        self.blocks += other.blocks;
        self.ops += other.ops;
        self.fused_cmp_br += other.fused_cmp_br;
        self.fused_glo_load += other.fused_glo_load;
        self.fused_mov_mov += other.fused_mov_mov;
    }

    /// Total fused pairs of all kinds.
    pub fn fused_total(&self) -> u64 {
        self.fused_cmp_br + self.fused_glo_load + self.fused_mov_mov
    }
}

/// One translated function: pre-decoded ops plus the per-index
/// steps-to-block-end table. Both are indexed 1:1 with `instrs`.
#[derive(Debug, Default)]
pub(crate) struct TranslatedFunc {
    pub ops: Vec<Op>,
    /// `ste[i]`: fuel steps consumed executing straight-line from `i`
    /// through (and including) the block-ending op. If `fuel >= ste[i]`,
    /// the segment cannot run out of fuel before its next control event.
    pub ste: Vec<u32>,
}

/// A fully translated module, owned by the engine that translated it.
#[derive(Debug)]
pub struct TranslatedModule {
    pub(crate) funcs: Vec<TranslatedFunc>,
    /// Translation statistics for this module.
    pub stats: TranslateStats,
}

fn sext_ty(size: u8) -> Ty {
    match size {
        1 => Ty::I8,
        2 => Ty::I16,
        _ => Ty::I32,
    }
}

/// True when `eval_bin`'s mask and sign-extension are identities for `ty` —
/// the precondition for the `AddQ`-family specialisations.
fn full_width(ty: Ty) -> bool {
    ty.mask() == u64::MAX
}

pub(crate) fn decode(inst: &MInst) -> Op {
    match inst {
        MInst::Mov { dst, src, size, sext } => {
            let sx = (*sext && *size < 8).then(|| sext_ty(*size));
            match (src, sx) {
                (Src::Reg(r), None) => Op::MovR { dst: dst.0, src: r.0 },
                (Src::Reg(r), Some(ty)) => Op::MovRs { dst: dst.0, src: r.0, ty },
                // Immediates sign-extend to the same constant every time:
                // fold it now.
                (Src::Imm(v), sx) => {
                    let imm = match sx {
                        Some(ty) => sext_bits(*v, ty) as u64,
                        None => *v,
                    };
                    Op::MovI { dst: dst.0, imm }
                }
                (Src::Mem(m, sz), None) => {
                    Op::MovL { dst: dst.0, mem: PackedMem::of(m), size: *sz }
                }
                (Src::Mem(m, sz), Some(ty)) => {
                    Op::MovLs { dst: dst.0, mem: PackedMem::of(m), size: *sz, ty }
                }
                (Src::Global(g), sx) => Op::MovG { dst: dst.0, gid: g.0, sext: sx },
            }
        }
        MInst::Store { src, mem, size } => {
            Op::St { src: src.0, mem: PackedMem::of(mem), size: *size }
        }
        MInst::Lea { dst, mem } => Op::Lea { dst: dst.0, mem: PackedMem::of(mem) },
        MInst::Bin { op, dst, lhs, rhs, ty } => {
            let (d, l) = (dst.0, lhs.0);
            match (op, rhs, *ty) {
                (BinOp::Add, Src::Reg(r), t) if full_width(t) => {
                    Op::AddQ { dst: d, lhs: l, rhs: r.0 }
                }
                (BinOp::Add, Src::Imm(v), t) if full_width(t) => {
                    Op::AddQI { dst: d, lhs: l, imm: *v }
                }
                (BinOp::Sub, Src::Reg(r), t) if full_width(t) => {
                    Op::SubQ { dst: d, lhs: l, rhs: r.0 }
                }
                (BinOp::Sub, Src::Imm(v), t) if full_width(t) => {
                    Op::SubQI { dst: d, lhs: l, imm: *v }
                }
                (BinOp::Mul, Src::Reg(r), t) if full_width(t) => {
                    Op::MulQ { dst: d, lhs: l, rhs: r.0 }
                }
                (BinOp::FAdd, Src::Reg(r), Ty::F64) => Op::FAdd { dst: d, lhs: l, rhs: r.0 },
                (BinOp::FSub, Src::Reg(r), Ty::F64) => Op::FSub { dst: d, lhs: l, rhs: r.0 },
                (BinOp::FMul, Src::Reg(r), Ty::F64) => Op::FMul { dst: d, lhs: l, rhs: r.0 },
                (BinOp::FAdd, Src::Mem(m, 8), Ty::F64) => {
                    Op::FAddL { dst: d, lhs: l, mem: PackedMem::of(m) }
                }
                (BinOp::FMul, Src::Mem(m, 8), Ty::F64) => {
                    Op::FMulL { dst: d, lhs: l, mem: PackedMem::of(m) }
                }
                _ => Op::Bin { op: *op, dst: d, lhs: l, rhs: SrcK::of(rhs), ty: *ty },
            }
        }
        MInst::Icmp { pred, dst, lhs, rhs, ty } => {
            Op::Icmp { pred: *pred, dst: dst.0, lhs: lhs.0, rhs: SrcK::of(rhs), ty: *ty }
        }
        MInst::Fcmp { pred, dst, lhs, rhs, ty } => {
            Op::Fcmp { pred: *pred, dst: dst.0, lhs: lhs.0, rhs: SrcK::of(rhs), ty: *ty }
        }
        MInst::Cast { op, dst, src, from, to } => {
            Op::Cast { op: *op, dst: dst.0, src: src.0, from: *from, to: *to }
        }
        MInst::Select { dst, cond, t, f } => {
            Op::Select { dst: dst.0, cond: cond.0, t: t.0, f: f.0 }
        }
        MInst::Jmp { target } => Op::Jmp { target: *target },
        MInst::Jnz { cond, then_t, else_t } => {
            Op::Jnz { cond: cond.0, then_t: *then_t, else_t: *else_t }
        }
        MInst::GetArg { dst, idx } => Op::GetArg { dst: dst.0, idx: *idx },
        MInst::Call { callee, args, dst } => Op::Call {
            callee: callee.0,
            args: args.iter().map(SrcK::of).collect(),
            dst: dst.map_or(NO_REG, |r| r.0),
        },
        MInst::CallIntr { which, args, dst } => Op::CallIntr {
            which: *which,
            args: args.iter().map(SrcK::of).collect(),
            dst: dst.map_or(NO_REG, |r| r.0),
        },
        MInst::Ret { src } => Op::Ret { src: src.map_or(NO_REG, |r| r.0) },
    }
}

/// True when a `Mov`'s sign-extension flag is inert (it only applies to
/// sub-word sizes — the same rule `decode` uses).
fn no_sext(sext: bool, size: u8) -> bool {
    !(sext && size < 8)
}

/// Fused translation of the pair `(a, b)`, if the pair is fusible. The
/// caller has already established that `b`'s index is not a branch target.
fn fuse(a: &MInst, b: &MInst, stats: &mut TranslateStats) -> Option<Op> {
    match (a, b) {
        // icmp r, ...; jnz r — the branch consumes the fresh compare.
        (MInst::Icmp { pred, dst, lhs, rhs, ty }, MInst::Jnz { cond, then_t, else_t })
            if cond == dst =>
        {
            stats.fused_cmp_br += 1;
            Some(Op::CmpBr {
                pred: *pred,
                cdst: dst.0,
                lhs: lhs.0,
                rhs: SrcK::of(rhs),
                ty: *ty,
                then_t: *then_t,
                else_t: *else_t,
            })
        }
        // mov g, @G; mov d, mem — a global array base materialised right
        // before the access that indexes through it. The fused op writes
        // the base register first (sub-step 1), so the load's effective
        // address sees exactly the value the standalone pair would.
        (
            MInst::Mov { dst, src: Src::Global(g), size: gsz, sext: gsx },
            MInst::Mov { dst: ldst, src: Src::Mem(m, msz), size: _, sext: false },
        ) if no_sext(*gsx, *gsz) && m.base == Some(*dst) => {
            stats.fused_glo_load += 1;
            Some(Op::GloLoad {
                gdst: dst.0,
                gid: g.0,
                ldst: ldst.0,
                mem: PackedMem::of(m),
                size: *msz,
            })
        }
        // mov g, @G; fadd/fmul d, l, 8(mem) — the same base reload feeding
        // a folded f64 memory operand (dot-product inner loops).
        (
            MInst::Mov { dst, src: Src::Global(g), size: gsz, sext: gsx },
            MInst::Bin {
                op: op @ (BinOp::FAdd | BinOp::FMul),
                dst: fdst,
                lhs,
                rhs: Src::Mem(m, 8),
                ty: Ty::F64,
            },
        ) if no_sext(*gsx, *gsz) && m.base == Some(*dst) => {
            stats.fused_glo_load += 1;
            Some(Op::GloFBin {
                gdst: dst.0,
                gid: g.0,
                mul: matches!(op, BinOp::FMul),
                fdst: fdst.0,
                lhs: lhs.0,
                mem: PackedMem::of(m),
            })
        }
        // mov a, b; mov c, d — loop-bottom variable rotation. Sub-step 1
        // writes `a` before sub-step 2 reads `d`, so `d == a` chains.
        (
            MInst::Mov { dst: d1, src: Src::Reg(s1), size: z1, sext: x1 },
            MInst::Mov { dst: d2, src: Src::Reg(s2), size: z2, sext: x2 },
        ) if no_sext(*x1, *z1) && no_sext(*x2, *z2) => {
            stats.fused_mov_mov += 1;
            Some(Op::MovRR { d1: d1.0, s1: s1.0, d2: d2.0, s2: s2.0 })
        }
        _ => None,
    }
}

fn translate_function(mf: &MachineFunction, stats: &mut TranslateStats) -> TranslatedFunc {
    let n = mf.instrs.len();
    if n == 0 {
        return TranslatedFunc::default();
    }
    // Leaders: the entry, every branch target, and every fall-through past a
    // segment ender. Fusion must not swallow a branch target (the pair would
    // not be enterable at its second instruction).
    let mut leader = vec![false; n];
    leader[0] = true;
    for (i, inst) in mf.instrs.iter().enumerate() {
        match inst {
            MInst::Jmp { target } => {
                if let Some(l) = leader.get_mut(*target as usize) {
                    *l = true;
                }
            }
            MInst::Jnz { then_t, else_t, .. } => {
                for t in [*then_t, *else_t] {
                    if let Some(l) = leader.get_mut(t as usize) {
                        *l = true;
                    }
                }
            }
            MInst::Call { .. } | MInst::CallIntr { .. } | MInst::Ret { .. } => {
                if let Some(l) = leader.get_mut(i + 1) {
                    *l = true;
                }
            }
            _ => {}
        }
    }
    stats.blocks += leader.iter().filter(|&&l| l).count() as u64;
    stats.ops += n as u64;

    // Decode every instruction standalone, then overlay fused pairs. The
    // op at `i + 1` still starts at that instruction: it is the entry point
    // for trap resumes at that PC.
    let mut ops: Vec<Op> = mf.instrs.iter().map(decode).collect();
    for i in 0..n - 1 {
        if leader[i + 1] {
            continue;
        }
        if let Some(fused) = fuse(&mf.instrs[i], &mf.instrs[i + 1], stats) {
            ops[i] = fused;
        }
    }

    // Steps-to-block-end, computed backwards over the fused stream. A
    // non-ender whose successor would fall off the function end charges only
    // itself; the engine's next segment entry then reports the wild PC
    // (without consuming fuel), exactly like the interpreter's fetch check.
    let mut ste = vec![0u32; n];
    for i in (0..n).rev() {
        let c = ops[i].cost();
        ste[i] = if ops[i].ends_segment() {
            c
        } else {
            let next = i + c as usize;
            if next >= n {
                c
            } else {
                c + ste[next]
            }
        };
    }
    TranslatedFunc { ops, ste }
}

/// Translate a whole module (declarations translate to empty functions —
/// entering one traps as a wild PC, exactly like the interpreter's fetch).
pub(crate) fn translate_module(mm: &MachineModule) -> TranslatedModule {
    let mut stats = TranslateStats::default();
    let funcs = mm
        .funcs
        .iter()
        .map(|mf| {
            if mf.is_decl {
                TranslatedFunc::default()
            } else {
                translate_function(mf, &mut stats)
            }
        })
        .collect();
    TranslatedModule { funcs, stats }
}

/// What carebench still calls to time one translation: a stateless
/// stand-in that translates on every call. It goes with ROADMAP 8(b) once
/// carebench's item 1(d) lands; the engine itself calls `translate_module`.
/// Zero-sized, but not a unit struct: carebench builds it with `default()`,
/// which clippy refuses for a unit struct.
#[derive(Default)]
pub struct TranslationCache(());

impl TranslationCache {
    /// A shared instance; it holds nothing.
    pub fn global() -> &'static TranslationCache {
        static GLOBAL: TranslationCache = TranslationCache(());
        &GLOBAL
    }

    /// Translate `mm` afresh.
    pub fn get_or_translate(&self, mm: &MachineModule) -> Arc<TranslatedModule> {
        Arc::new(translate_module(mm))
    }
}
