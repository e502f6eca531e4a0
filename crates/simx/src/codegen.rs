//! SimISA backend: instruction selection, frame layout and linear-scan
//! register allocation.
//!
//! Two lowering disciplines reproduce the paper's `-O0` / `-O1` machine-code
//! shapes:
//!
//! * **stack-slot mode** (`-O0`): every IR value round-trips through a frame
//!   slot, address operands are plain `(reg)` dereferences of pointers
//!   reloaded from slots — so every value is always retrievable from memory
//!   at recovery time;
//! * **register mode** (`-O1`): values live in registers via linear scan,
//!   `gep`s fold into `disp(base,index,scale)` operands (giving Safeguard an
//!   index register to patch), single-use loads fold CISC-style into their
//!   consuming ALU instruction, and the load's debug location is attached to
//!   the folded instruction exactly as Armor requires (paper §3.3).
//!
//! The backend also emits the simulated DWARF: a line table entry per
//! instruction and a [`VarDie`] per Armor [`DieRequest`], with location
//! ranges derived from the allocation intervals (so a parameter whose
//! register has been reused reports *no location*, making Safeguard decline
//! rather than fetch garbage).

use crate::debug::{DebugData, DieRequest, LocEntry, VarDie, VarPlace};
use crate::image::{MachineFunction, MachineModule};
use crate::isa::{MInst, MemOp, Reg, Src, FP, INST_BYTES};
use analysis::{Cfg, Liveness, UseDef};
use tinyir::interp::const_bits;
use tinyir::{
    BlockId, Callee, DebugLoc, FuncId, Function, Instr, InstrId, InstrKind, Module, Ty, Value,
};

/// Integer scratch registers (never allocated).
const S0: Reg = Reg(0);
const S1: Reg = Reg(1);
const S2: Reg = Reg(2);
/// Float scratch registers (never allocated).
const X0: Reg = Reg(16);
const X1: Reg = Reg(17);
const X2: Reg = Reg(18);
/// Allocatable integer registers.
const GPR_POOL: [Reg; 11] =
    [Reg(3), Reg(4), Reg(5), Reg(6), Reg(7), Reg(8), Reg(9), Reg(10), Reg(11), Reg(12), Reg(13)];
/// Allocatable float registers.
const FPR_POOL: [Reg; 13] = [
    Reg(19),
    Reg(20),
    Reg(21),
    Reg(22),
    Reg(23),
    Reg(24),
    Reg(25),
    Reg(26),
    Reg(27),
    Reg(28),
    Reg(29),
    Reg(30),
    Reg(31),
];

/// Where an IR value lives at run time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Loc {
    /// In a register for its whole live interval.
    R(Reg),
    /// In the frame slot at `FP + offset`.
    Slot(i64),
}

/// Source of a parallel phi copy.
#[derive(Clone, Copy, PartialEq, Debug)]
enum CopySrc {
    Loc(Loc),
    Imm(u64),
    Global(tinyir::GlobalId),
}

/// Compile an entire TinyIR module to SimISA.
///
/// `regalloc = false` is the `-O0` discipline, `true` the `-O1` one.
/// `die_requests` come from Armor and drive [`VarDie`] emission.
pub fn compile_module(ir: &Module, regalloc: bool, die_requests: &[DieRequest]) -> MachineModule {
    let mut funcs = Vec::with_capacity(ir.funcs.len());
    let mut per_func_dies: Vec<Vec<(String, VarPlace, u32, u32)>> = Vec::new();
    for (fi, f) in ir.funcs.iter().enumerate() {
        if f.is_decl {
            funcs.push(MachineFunction {
                name: f.name.clone(),
                instrs: vec![],
                locs: vec![],
                frame_size: 0,
                code_offset: 0,
                is_decl: true,
            });
            per_func_dies.push(vec![]);
            continue;
        }
        let reqs: Vec<&DieRequest> =
            die_requests.iter().filter(|r| r.func == FuncId(fi as u32)).collect();
        let (mf, dies) = lower_function(f, regalloc, &reqs);
        funcs.push(mf);
        per_func_dies.push(dies);
    }
    // Assign module-relative code offsets (64-byte inter-function padding).
    let mut off = 0u64;
    for f in &mut funcs {
        if f.is_decl {
            continue;
        }
        f.code_offset = off;
        off += f.instrs.len() as u64 * INST_BYTES + 64;
    }
    // Build debug data with final offsets.
    let mut debug = DebugData::default();
    for f in &funcs {
        for (i, loc) in f.locs.iter().enumerate() {
            if let Some(l) = loc {
                debug.push_line(f.offset_of(i), *l);
            }
        }
    }
    for (f, dies) in funcs.iter().zip(&per_func_dies) {
        for (name, place, lo_idx, hi_idx) in dies {
            let lo = f.offset_of(*lo_idx as usize);
            let hi = f.offset_of(*hi_idx as usize);
            debug
                .vars
                .entry(name.clone())
                .or_insert_with(|| VarDie { name: name.clone(), locs: vec![] })
                .locs
                .push(LocEntry { lo, hi, place: *place });
        }
    }
    MachineModule { name: ir.name.clone(), funcs, debug, ir: ir.clone(), code_size: off }
}

/// Split critical edges into blocks that carry phis, so phi copies inserted
/// at predecessor ends cannot leak onto the wrong path. Returns the split
/// copy of `orig`, or `None` when it has no such edge.
fn split_critical_edges(orig: &Function, cfg: &Cfg) -> Option<Function> {
    let nblocks = orig.blocks.len();
    let has_phi: Vec<bool> = (0..nblocks)
        .map(|b| {
            orig.blocks[b]
                .instrs
                .first()
                .map(|&i| matches!(orig.instr(i).kind, InstrKind::Phi { .. }))
                .unwrap_or(false)
        })
        .collect();
    let mut split: Option<Function> = None;
    for p in 0..nblocks {
        // Only p's own iteration changes p's terminator, so `orig`'s is
        // current here.
        let Some(&last) = orig.blocks[p].instrs.last() else { continue };
        if cfg.succs[p].len() < 2 {
            continue;
        }
        for &s in &cfg.succs[p] {
            if !has_phi[s.0 as usize] || cfg.preds[s.0 as usize].len() < 2 {
                continue;
            }
            // Split p -> s.
            let f = split.get_or_insert_with(|| orig.clone());
            let e = f.add_block(format!("crit.{}.{}", p, s.0));
            let br = InstrId(f.instrs.len() as u32);
            f.instrs.push(Instr::new(InstrKind::Br { target: s }));
            f.blocks[e.0 as usize].instrs.push(br);
            let pb = BlockId(p as u32);
            // Retarget p's terminator edge(s) to e.
            if let InstrKind::CondBr { then_bb, else_bb, .. } = &mut f.instrs[last.0 as usize].kind
            {
                if *then_bb == s {
                    *then_bb = e;
                }
                if *else_bb == s {
                    *else_bb = e;
                }
            }
            // Update phi incomings in s: p -> e.
            let s_instrs = f.blocks[s.0 as usize].instrs.clone();
            for iid in s_instrs {
                if let InstrKind::Phi { incomings, .. } = &mut f.instrs[iid.0 as usize].kind {
                    for (b, _) in incomings.iter_mut() {
                        if *b == pb {
                            *b = e;
                        }
                    }
                }
            }
        }
    }
    split
}

/// Widen interval `iv` to cover position `p`.
fn span(iv: &mut Option<(u32, u32)>, p: u32) {
    let e = iv.get_or_insert((p, p));
    e.0 = e.0.min(p);
    e.1 = e.1.max(p);
}

/// Per-function lowering state. Every per-value table is a `Vec` indexed
/// by instruction id (or liveness key, for `intervals`).
struct FnCtx<'f> {
    f: &'f Function,
    storage: Vec<Option<Loc>>,
    arg_loc: Vec<Loc>,
    /// Load -> the bin it folds into.
    folded_load: Vec<Option<InstrId>>,
    folded_gep: Vec<bool>,
    alloca_area: Vec<Option<i64>>,
    out: Vec<MInst>,
    olocs: Vec<Option<DebugLoc>>,
    cur_loc: Option<DebugLoc>,
    block_mstart: Vec<u32>,
    /// IR position ([`Liveness::position`]) -> its first machine index.
    pos2mpos: Vec<u32>,
    /// Liveness key -> [lo, hi] IR positions.
    intervals: Vec<Option<(u32, u32)>>,
}

fn lower_function(
    orig: &Function,
    regalloc: bool,
    reqs: &[&DieRequest],
) -> (MachineFunction, Vec<(String, VarPlace, u32, u32)>) {
    let cfg = Cfg::new(orig);
    let split = split_critical_edges(orig, &cfg);
    let f = split.as_ref().unwrap_or(orig);
    let cfg = if split.is_some() { Cfg::new(f) } else { cfg };
    let lv = Liveness::compute(f, &cfg);
    let ud = UseDef::compute(f);
    let n_instr = f.instrs.len();
    let n_keys = n_instr + f.params.len();

    // -- folding decisions (register mode only) ------------------------------
    let mut folded_load: Vec<Option<InstrId>> = vec![None; n_instr];
    let mut folded_gep: Vec<bool> = vec![false; n_instr];
    // Extra (key, position) uses injected into intervals by folding.
    let mut extra_use: Vec<(InstrId, u32)> = Vec::new();
    if regalloc {
        let block_of = |i: InstrId| lv.place(i).0;
        // CISC load folding: single user, same block, bin rhs, no
        // store/call in between.
        for (_, block) in f.block_iter() {
            for (li, &iid) in block.instrs.iter().enumerate() {
                let InstrKind::Load { ptr, ty } = f.instr(iid).kind else { continue };
                let Some(user) = ud.single_user(iid) else { continue };
                if block_of(user) != block_of(iid) {
                    continue;
                }
                let InstrKind::Bin { lhs, rhs, ty: bty, .. } = f.instr(user).kind else {
                    continue;
                };
                if rhs != Value::Instr(iid) || lhs == Value::Instr(iid) || bty != ty {
                    continue;
                }
                // Scan between load and user for memory hazards.
                let hazard = block.instrs[li + 1..lv.place(user).1].iter().any(|&i| {
                    matches!(f.instr(i).kind, InstrKind::Store { .. } | InstrKind::Call { .. })
                });
                if hazard {
                    continue;
                }
                folded_load[iid.0 as usize] = Some(user);
                // The load's address inputs are now consumed at `user`.
                if let Value::Instr(g) = ptr {
                    extra_use.push((g, lv.position(user)));
                }
            }
        }
        // Gep folding into memory operands: power-of-two scale, every user a
        // same-block load/store dereferencing it.
        for (_, block) in f.block_iter() {
            for &iid in &block.instrs {
                let InstrKind::Gep { base, index, elem_size } = f.instr(iid).kind else {
                    continue;
                };
                if !matches!(elem_size, 1 | 2 | 4 | 8) {
                    continue;
                }
                let users = ud.users(iid);
                if users.is_empty() {
                    continue;
                }
                let ok = users.iter().all(|&u| {
                    block_of(u) == block_of(iid)
                        && match &f.instr(u).kind {
                            InstrKind::Load { ptr, .. } => *ptr == Value::Instr(iid),
                            InstrKind::Store { ptr, val } => {
                                *ptr == Value::Instr(iid) && *val != Value::Instr(iid)
                            }
                            _ => false,
                        }
                });
                if !ok {
                    continue;
                }
                folded_gep[iid.0 as usize] = true;
                // base/index are now consumed at each materialisation site
                // (the user itself, or the bin a folded load melts into).
                for &u in users {
                    let site = folded_load[u.0 as usize].unwrap_or(u);
                    let sp = lv.position(site);
                    for v in [base, index] {
                        if let Some(k) = lv.key_of(v) {
                            extra_use.push((k, sp));
                        }
                    }
                }
            }
        }
    }

    // -- intervals ------------------------------------------------------------
    // For every liveness key: [min(def, live positions), max(live
    // positions)]. One backward walk per block: a key's live positions in a
    // block are runs, and spanning every run's two ends gives the same
    // bounds as spanning every live position.
    let mut intervals: Vec<Option<(u32, u32)>> = vec![None; n_keys];
    let mut sets = Default::default();
    let mut first = 0u32;
    for (bid, block) in f.block_iter() {
        let last = (first + block.instrs.len() as u32).wrapping_sub(1);
        let mut p = last.wrapping_add(1);
        lv.walk_block(bid, &mut sets, |iid, before, after| {
            p -= 1;
            if p == last {
                for k in before.iter() {
                    span(&mut intervals[k.0 as usize], p);
                }
            } else {
                for k in before.minus(after) {
                    span(&mut intervals[k.0 as usize], p);
                }
                for k in after.minus(before) {
                    span(&mut intervals[k.0 as usize], p + 1);
                }
            }
            if p == first {
                for k in before.iter() {
                    span(&mut intervals[k.0 as usize], p);
                }
            }
            if f.instr(iid).result_ty().is_some() {
                span(&mut intervals[iid.0 as usize], p);
            }
        });
        first = last.wrapping_add(1);
    }
    // Arguments are defined at position 0.
    for a in 0..f.params.len() as u32 {
        if let Some(e) = &mut intervals[lv.arg_key(a).0 as usize] {
            e.0 = 0;
        }
    }
    // Arguments that Armor wants described must stay addressable for the
    // whole function (the ABI's incoming-argument guarantee the paper's
    // terminal-value case (3) relies on): pin their interval to the full
    // range so the register is never reused — or the value is parked in a
    // slot — and the DIE covers every protected access.
    for r in reqs {
        if let Value::Arg(a) = r.value {
            intervals[lv.arg_key(a).0 as usize] = Some((0, (n_instr as u32).saturating_sub(1)));
        }
    }
    // Phi storages are written at predecessor terminators; extend.
    for (_, block) in f.block_iter() {
        for &iid in &block.instrs {
            if let InstrKind::Phi { incomings, .. } = &f.instr(iid).kind {
                for (pred, _) in incomings {
                    let Some(&last) = f.block(*pred).instrs.last() else { continue };
                    span(&mut intervals[iid.0 as usize], lv.position(last));
                }
            }
        }
    }
    for &(k, p) in &extra_use {
        if let Some(e) = &mut intervals[k.0 as usize] {
            e.0 = e.0.min(p);
            e.1 = e.1.max(p);
        }
    }

    // -- storage assignment ----------------------------------------------------
    let mut storage: Vec<Option<Loc>> = vec![None; n_instr];
    let mut arg_loc: Vec<Loc> = Vec::new();
    let mut frame: i64 = 0;
    let mut alloca_area: Vec<Option<i64>> = vec![None; n_instr];

    // Reserve array space for allocas in all modes.
    for (_, block) in f.block_iter() {
        for &iid in &block.instrs {
            if let InstrKind::Alloca { elem_ty, count } = f.instr(iid).kind {
                let align = elem_ty.align() as i64;
                frame = (frame + align - 1) & !(align - 1);
                alloca_area[iid.0 as usize] = Some(frame);
                frame += (elem_ty.size() as i64 * count as i64).max(8);
            }
        }
    }

    if !regalloc {
        // Stack-slot mode: every value and argument gets a slot.
        for _ in 0..f.params.len() {
            arg_loc.push(Loc::Slot(frame));
            frame += 8;
        }
        for (_, block) in f.block_iter() {
            for &iid in &block.instrs {
                if f.instr(iid).result_ty().is_some() {
                    storage[iid.0 as usize] = Some(Loc::Slot(frame));
                    frame += 8;
                }
            }
        }
    } else {
        // Linear scan over intervals.
        #[derive(Clone, Copy)]
        struct Cand {
            key: InstrId,
            lo: u32,
            hi: u32,
            float: bool,
        }
        let mut cands: Vec<Cand> = Vec::new();
        for (k, iv) in intervals.iter().enumerate() {
            let Some((lo, hi)) = *iv else { continue };
            let float = if k < n_instr {
                // Folded values get no storage at all.
                if folded_gep[k] || folded_load[k].is_some() {
                    continue;
                }
                match f.instrs[k].result_ty() {
                    Some(t) => t.is_float(),
                    None => continue,
                }
            } else {
                f.params[k - n_instr].is_float()
            };
            cands.push(Cand { key: InstrId(k as u32), lo, hi, float });
        }
        cands.sort_by_key(|c| (c.lo, c.hi, c.key.0));
        let mut active: Vec<(u32, Reg)> = Vec::new(); // (hi, reg)
        let mut free_gpr: Vec<Reg> = GPR_POOL.to_vec();
        let mut free_fpr: Vec<Reg> = FPR_POOL.to_vec();
        let mut assigned: Vec<Option<Loc>> = vec![None; n_keys];
        for c in cands {
            active.retain(|&(hi, r)| {
                if hi < c.lo {
                    if r.is_float() {
                        free_fpr.push(r);
                    } else {
                        free_gpr.push(r);
                    }
                    false
                } else {
                    true
                }
            });
            let pool = if c.float { &mut free_fpr } else { &mut free_gpr };
            let loc = match pool.pop() {
                Some(r) => {
                    active.push((c.hi, r));
                    Loc::R(r)
                }
                None => {
                    frame += 8;
                    Loc::Slot(frame - 8)
                }
            };
            assigned[c.key.0 as usize] = Some(loc);
        }
        for a in 0..f.params.len() as u32 {
            // Every argument reserves a parking slot; a dead one is parked
            // there so GetArg still works.
            let parked = Loc::Slot(frame);
            frame += 8;
            arg_loc.push(assigned[lv.arg_key(a).0 as usize].unwrap_or(parked));
        }
        assigned.truncate(n_instr);
        storage = assigned;
    }

    let frame_size = ((frame + 15) & !15) as u64;

    let mut ctx = FnCtx {
        f,
        storage,
        arg_loc,
        folded_load,
        folded_gep,
        alloca_area,
        out: Vec::new(),
        olocs: Vec::new(),
        cur_loc: None,
        block_mstart: Vec::new(),
        pos2mpos: Vec::with_capacity(n_instr),
        intervals,
    };
    ctx.lower();

    // -- DIE emission -----------------------------------------------------------
    let func_end = ctx.out.len() as u32;
    let mut dies: Vec<(String, VarPlace, u32, u32)> = Vec::new();
    for r in reqs {
        let (loc, key) = match r.value {
            Value::Instr(id) => (ctx.storage.get(id.0 as usize).copied().flatten(), Some(id)),
            Value::Arg(a) => (ctx.arg_loc.get(a as usize).copied(), Some(lv.arg_key(a))),
            _ => (None, None),
        };
        let Some(loc) = loc else { continue }; // optimised away: no DIE
        let place = match loc {
            Loc::R(reg) => VarPlace::Reg(reg),
            Loc::Slot(off) => VarPlace::FrameOffset(off),
        };
        let interval = key.and_then(|k| ctx.intervals.get(k.0 as usize).copied().flatten());
        let (lo, hi) = match (loc, interval) {
            // Register locations are only valid over the allocation
            // interval; slots are valid for the whole function. The upper
            // bound must cover the *entire* lowering of the interval's last
            // IR instruction (a memory access may emit operand-setup moves
            // before the faulting dereference), so it extends to the start
            // of the next IR instruction's lowering.
            (Loc::R(_), Some((lo, hi))) => {
                let hi_mpos = ctx
                    .pos2mpos
                    .get(hi as usize + 1)
                    .copied()
                    .unwrap_or(func_end)
                    .max(ctx.pos2mpos[hi as usize] + 1)
                    .min(func_end);
                (ctx.pos2mpos[lo as usize], hi_mpos)
            }
            _ => (0, func_end),
        };
        dies.push((r.name.clone(), place, lo, hi.max(lo + 1)));
    }

    let mf = MachineFunction {
        name: f.name.clone(),
        instrs: ctx.out,
        locs: ctx.olocs,
        frame_size,
        code_offset: 0,
        is_decl: false,
    };
    (mf, dies)
}

impl FnCtx<'_> {
    fn emit(&mut self, m: MInst) -> u32 {
        self.out.push(m);
        self.olocs.push(self.cur_loc);
        self.out.len() as u32 - 1
    }

    fn bank_scratch(&self, ty: Ty, which: u8) -> Reg {
        match (ty.is_float(), which) {
            (false, 0) => S0,
            (false, 1) => S1,
            (false, _) => S2,
            (true, 0) => X0,
            (true, 1) => X1,
            (true, _) => X2,
        }
    }

    fn value_ty(&self, v: Value) -> Ty {
        tinyir::module::value_ty(self.f, v).unwrap_or(Ty::I64)
    }

    fn loc_of(&self, v: Value) -> Option<Loc> {
        match v {
            Value::Instr(id) => self.storage[id.0 as usize],
            Value::Arg(a) => self.arg_loc.get(a as usize).copied(),
            _ => None,
        }
    }

    /// Ensure `v` is in a register, loading/materialising into `scratch`
    /// when necessary.
    fn ensure_reg(&mut self, v: Value, scratch: Reg) -> Reg {
        if let Some(bits) = const_bits(v) {
            self.emit(MInst::Mov { dst: scratch, src: Src::Imm(bits), size: 8, sext: false });
            return scratch;
        }
        if let Value::Global(g) = v {
            self.emit(MInst::Mov { dst: scratch, src: Src::Global(g), size: 8, sext: false });
            return scratch;
        }
        match self
            .loc_of(v)
            .unwrap_or_else(|| panic!("value {v:?} has no storage in @{}", self.f.name))
        {
            Loc::R(r) => r,
            Loc::Slot(off) => {
                self.emit(MInst::Mov {
                    dst: scratch,
                    src: Src::Mem(MemOp::base_disp(FP, off), 8),
                    size: 8,
                    sext: false,
                });
                scratch
            }
        }
    }

    /// A `Src` for `v` without forcing a register when avoidable.
    fn src_of(&self, v: Value) -> Src {
        if let Some(bits) = const_bits(v) {
            return Src::Imm(bits);
        }
        if let Value::Global(g) = v {
            return Src::Global(g);
        }
        match self
            .loc_of(v)
            .unwrap_or_else(|| panic!("value {v:?} has no storage in @{}", self.f.name))
        {
            Loc::R(r) => Src::Reg(r),
            Loc::Slot(off) => Src::Mem(MemOp::base_disp(FP, off), 8),
        }
    }

    /// Destination register for value `id` plus an optional spill slot.
    fn dst_for(&self, id: InstrId, scratch: Reg) -> (Reg, Option<i64>) {
        match self.storage[id.0 as usize] {
            Some(Loc::R(r)) => (r, None),
            Some(Loc::Slot(off)) => (scratch, Some(off)),
            None => (scratch, None), // result unused
        }
    }

    fn finish(&mut self, dst: Reg, spill: Option<i64>) {
        if let Some(off) = spill {
            self.emit(MInst::Store { src: dst, mem: MemOp::base_disp(FP, off), size: 8 });
        }
    }

    /// Build the memory operand for a pointer value at an access site.
    fn mem_for_ptr(&mut self, ptr: Value, s_base: Reg, s_index: Reg) -> MemOp {
        if let Value::Instr(g) = ptr {
            // Direct dereference of a stack slot: address it FP-relative,
            // exactly like clang's `-16(%rbp)` operands for locals. (These
            // accesses involve no address computation, so Armor rightly
            // skips them — and with FP-relative addressing there is no
            // intermediate pointer register for a fault to corrupt.)
            if let InstrKind::Alloca { .. } = self.f.instr(g).kind {
                if let Some(off) = self.alloca_area[g.0 as usize] {
                    return MemOp::base_disp(FP, off);
                }
            }
            if self.folded_gep[g.0 as usize] {
                let InstrKind::Gep { base, index, elem_size } = self.f.instr(g).kind else {
                    unreachable!()
                };
                let base_r = self.ensure_reg(base, s_base);
                return match const_bits(index) {
                    Some(c) => MemOp::base_disp(base_r, (c as i64).wrapping_mul(elem_size as i64)),
                    None => {
                        let idx_r = self.ensure_reg(index, s_index);
                        MemOp::base_index(base_r, idx_r, elem_size as u8, 0)
                    }
                };
            }
        }
        let r = self.ensure_reg(ptr, s_base);
        MemOp::base_disp(r, 0)
    }

    fn lower(&mut self) {
        // Prologue: fetch arguments into their storage.
        self.cur_loc = None;
        for a in 0..self.f.params.len() {
            match self.arg_loc[a] {
                Loc::R(r) => {
                    self.emit(MInst::GetArg { dst: r, idx: a as u8 });
                }
                Loc::Slot(off) => {
                    self.emit(MInst::GetArg { dst: S0, idx: a as u8 });
                    self.emit(MInst::Store { src: S0, mem: MemOp::base_disp(FP, off), size: 8 });
                }
            }
        }

        let nblocks = self.f.blocks.len();
        self.block_mstart = vec![0; nblocks];
        for b in 0..nblocks {
            self.block_mstart[b] = self.out.len() as u32;
            for &iid in &self.f.blocks[b].instrs {
                self.pos2mpos.push(self.out.len() as u32);
                self.cur_loc = self.f.instr(iid).loc;
                self.lower_instr(iid, BlockId(b as u32));
            }
        }
        // Fix up branch targets from block ids to machine indices.
        for m in &mut self.out {
            match m {
                MInst::Jmp { target } => *target = self.block_mstart[*target as usize],
                MInst::Jnz { then_t, else_t, .. } => {
                    *then_t = self.block_mstart[*then_t as usize];
                    *else_t = self.block_mstart[*else_t as usize];
                }
                _ => {}
            }
        }
    }

    fn lower_instr(&mut self, iid: InstrId, cur_bb: BlockId) {
        if self.folded_load[iid.0 as usize].is_some() || self.folded_gep[iid.0 as usize] {
            return; // materialised at their consumer
        }
        match self.f.instr(iid).kind {
            InstrKind::Phi { .. } => {} // written by predecessor copies
            InstrKind::Alloca { .. } => {
                let off = self.alloca_area[iid.0 as usize].expect("allocas have an area");
                let (dst, spill) = self.dst_for(iid, S0);
                self.emit(MInst::Lea { dst, mem: MemOp::base_disp(FP, off) });
                self.finish(dst, spill);
            }
            InstrKind::Load { ptr, ty } => {
                let mem = self.mem_for_ptr(ptr, S1, S2);
                let (dst, spill) = self.dst_for(iid, self.bank_scratch(ty, 0));
                self.emit(MInst::Mov {
                    dst,
                    src: Src::Mem(mem, ty.size() as u8),
                    size: ty.size() as u8,
                    sext: false,
                });
                self.finish(dst, spill);
            }
            InstrKind::Store { val, ptr } => {
                let ty = self.value_ty(val);
                let sreg = self.ensure_reg(val, self.bank_scratch(ty, 0));
                let mem = self.mem_for_ptr(ptr, S1, S2);
                self.emit(MInst::Store { src: sreg, mem, size: ty.size() as u8 });
            }
            InstrKind::Gep { base, index, elem_size } => {
                let base_r = self.ensure_reg(base, S0);
                let (dst, spill) = self.dst_for(iid, S0);
                match const_bits(index) {
                    Some(c) => {
                        self.emit(MInst::Lea {
                            dst,
                            mem: MemOp::base_disp(
                                base_r,
                                (c as i64).wrapping_mul(elem_size as i64),
                            ),
                        });
                    }
                    None => {
                        let mut idx_r = self.ensure_reg(index, S1);
                        if matches!(elem_size, 1 | 2 | 4 | 8) {
                            self.emit(MInst::Lea {
                                dst,
                                mem: MemOp::base_index(base_r, idx_r, elem_size as u8, 0),
                            });
                        } else {
                            // Materialise index * elem_size in S1 first.
                            if idx_r != S1 {
                                self.emit(MInst::Mov {
                                    dst: S1,
                                    src: Src::Reg(idx_r),
                                    size: 8,
                                    sext: false,
                                });
                                idx_r = S1;
                            }
                            self.emit(MInst::Bin {
                                op: tinyir::BinOp::Mul,
                                dst: S1,
                                lhs: idx_r,
                                rhs: Src::Imm(elem_size as u64),
                                ty: Ty::I64,
                            });
                            self.emit(MInst::Lea { dst, mem: MemOp::base_index(base_r, S1, 1, 0) });
                        }
                    }
                }
                self.finish(dst, spill);
            }
            InstrKind::Bin { op, lhs, rhs, ty } => {
                let lreg = self.ensure_reg(lhs, self.bank_scratch(ty, 0));
                // Folded CISC memory rhs?
                let folded = rhs.as_instr().filter(|l| self.folded_load[l.0 as usize] == Some(iid));
                let (rsrc, mem_loc) = match folded {
                    Some(load_id) => {
                        let InstrKind::Load { ptr, ty: lty } = self.f.instr(load_id).kind else {
                            unreachable!()
                        };
                        let mem = self.mem_for_ptr(ptr, S1, S2);
                        (Src::Mem(mem, lty.size() as u8), self.f.instr(load_id).loc)
                    }
                    None => (self.src_of(rhs), None),
                };
                // Slot-resident rhs: keep it as a folded frame-slot operand
                // only in register mode; in slot mode load it explicitly for
                // clarity of the emitted code.
                let (dst, spill) = self.dst_for(iid, self.bank_scratch(ty, 0));
                if let Some(l) = mem_loc {
                    // The folded instruction carries the *load's* location.
                    self.cur_loc = Some(l).or(self.cur_loc);
                }
                self.emit(MInst::Bin { op, dst, lhs: lreg, rhs: rsrc, ty });
                self.cur_loc = self.f.instr(iid).loc;
                self.finish(dst, spill);
            }
            InstrKind::Icmp { pred, lhs, rhs } => {
                let ty = self.value_ty(lhs);
                let lreg = self.ensure_reg(lhs, S0);
                let rsrc = self.src_of(rhs);
                let (dst, spill) = self.dst_for(iid, S0);
                self.emit(MInst::Icmp { pred, dst, lhs: lreg, rhs: rsrc, ty });
                self.finish(dst, spill);
            }
            InstrKind::Fcmp { pred, lhs, rhs } => {
                let ty = self.value_ty(lhs);
                let lreg = self.ensure_reg(lhs, X0);
                let rsrc = self.src_of(rhs);
                let (dst, spill) = self.dst_for(iid, S0);
                self.emit(MInst::Fcmp { pred, dst, lhs: lreg, rhs: rsrc, ty });
                self.finish(dst, spill);
            }
            InstrKind::Cast { op, val, to } => {
                let from = self.value_ty(val);
                let sreg = self.ensure_reg(val, self.bank_scratch(from, 0));
                let (dst, spill) = self.dst_for(iid, self.bank_scratch(to, 1));
                self.emit(MInst::Cast { op, dst, src: sreg, from, to });
                self.finish(dst, spill);
            }
            InstrKind::Select { cond, t, f: fv, ty } => {
                let creg = self.ensure_reg(cond, S0);
                let treg = self.ensure_reg(t, self.bank_scratch(ty, 1));
                let freg = self.ensure_reg(fv, self.bank_scratch(ty, 2));
                let (dst, spill) = self.dst_for(iid, self.bank_scratch(ty, 1));
                self.emit(MInst::Select { dst, cond: creg, t: treg, f: freg });
                self.finish(dst, spill);
            }
            InstrKind::Call { callee, ref args, ret_ty } => {
                let srcs: Vec<Src> = args.iter().map(|&a| self.src_of(a)).collect();
                let (dst, spill) = match ret_ty {
                    Some(t) => {
                        let (d, s) = self.dst_for(iid, self.bank_scratch(t, 0));
                        (Some(d), s)
                    }
                    None => (None, None),
                };
                match callee {
                    Callee::Func(fid) => {
                        self.emit(MInst::Call { callee: fid, args: srcs, dst });
                    }
                    Callee::Intrinsic(which) => {
                        self.emit(MInst::CallIntr { which, args: srcs, dst });
                    }
                }
                if let Some(d) = dst {
                    self.finish(d, spill);
                }
            }
            InstrKind::Br { target } => {
                self.phi_copies(cur_bb, target);
                self.emit(MInst::Jmp { target: target.0 });
            }
            InstrKind::CondBr { cond, then_bb, else_bb } => {
                let creg = self.ensure_reg(cond, S0);
                self.phi_copies(cur_bb, then_bb);
                self.phi_copies(cur_bb, else_bb);
                self.emit(MInst::Jnz { cond: creg, then_t: then_bb.0, else_t: else_bb.0 });
            }
            InstrKind::Ret { val } => {
                let src = val.map(|v| {
                    let ty = self.value_ty(v);
                    self.ensure_reg(v, self.bank_scratch(ty, 0))
                });
                self.emit(MInst::Ret { src });
            }
        }
    }

    /// Copy source of `v` for a phi parallel copy.
    fn copy_src(&self, v: Value) -> CopySrc {
        if let Some(bits) = const_bits(v) {
            return CopySrc::Imm(bits);
        }
        if let Value::Global(g) = v {
            return CopySrc::Global(g);
        }
        CopySrc::Loc(self.loc_of(v).expect("phi incoming has storage"))
    }

    /// Emit the parallel copies feeding `succ`'s phis from block `pred`.
    fn phi_copies(&mut self, pred: BlockId, succ: BlockId) {
        let mut copies: Vec<(Loc, CopySrc)> = Vec::new();
        for &iid in &self.f.blocks[succ.0 as usize].instrs {
            let InstrKind::Phi { incomings, .. } = &self.f.instr(iid).kind else { break };
            let Some((_, v)) = incomings.iter().find(|(b, _)| *b == pred) else {
                continue;
            };
            let Some(dst) = self.storage[iid.0 as usize] else { continue };
            let src = self.copy_src(*v);
            if src != CopySrc::Loc(dst) {
                copies.push((dst, src));
            }
        }
        // Sequentialise with cycle breaking through S2 (raw bits, so one
        // integer scratch serves both banks).
        while !copies.is_empty() {
            if let Some(i) = (0..copies.len()).find(|&i| {
                let (dst, _) = copies[i];
                !copies.iter().enumerate().any(|(j, (_, s))| j != i && *s == CopySrc::Loc(dst))
            }) {
                let (dst, src) = copies.remove(i);
                self.emit_move(dst, src);
            } else {
                // Cycle: buffer the first destination's current value.
                let (dst0, _) = copies[0];
                self.emit_move(Loc::R(S2), CopySrc::Loc(dst0));
                for (_, s) in copies.iter_mut() {
                    if *s == CopySrc::Loc(dst0) {
                        *s = CopySrc::Loc(Loc::R(S2));
                    }
                }
            }
        }
    }

    fn emit_move(&mut self, dst: Loc, src: CopySrc) {
        match (dst, src) {
            (Loc::R(d), CopySrc::Loc(Loc::R(s))) => {
                self.emit(MInst::Mov { dst: d, src: Src::Reg(s), size: 8, sext: false });
            }
            (Loc::R(d), CopySrc::Loc(Loc::Slot(off))) => {
                self.emit(MInst::Mov {
                    dst: d,
                    src: Src::Mem(MemOp::base_disp(FP, off), 8),
                    size: 8,
                    sext: false,
                });
            }
            (Loc::R(d), CopySrc::Imm(v)) => {
                self.emit(MInst::Mov { dst: d, src: Src::Imm(v), size: 8, sext: false });
            }
            (Loc::R(d), CopySrc::Global(g)) => {
                self.emit(MInst::Mov { dst: d, src: Src::Global(g), size: 8, sext: false });
            }
            (Loc::Slot(off), s) => {
                let r = match s {
                    CopySrc::Loc(Loc::R(r)) => r,
                    CopySrc::Loc(Loc::Slot(soff)) => {
                        self.emit(MInst::Mov {
                            dst: S0,
                            src: Src::Mem(MemOp::base_disp(FP, soff), 8),
                            size: 8,
                            sext: false,
                        });
                        S0
                    }
                    CopySrc::Imm(v) => {
                        self.emit(MInst::Mov { dst: S0, src: Src::Imm(v), size: 8, sext: false });
                        S0
                    }
                    CopySrc::Global(g) => {
                        self.emit(MInst::Mov {
                            dst: S0,
                            src: Src::Global(g),
                            size: 8,
                            sext: false,
                        });
                        S0
                    }
                };
                self.emit(MInst::Store { src: r, mem: MemOp::base_disp(FP, off), size: 8 });
            }
        }
    }
}
