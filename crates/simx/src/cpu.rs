//! The SimISA execution engine: a simulated process with frames, registers,
//! paged memory and traps. Like the paper's Pin profiler and GDB breakpoint,
//! stops and per-instruction profiling are an [`Instrument`] handed to one
//! run, never part of the [`Process`], so no clone or snapshot carries one.
//!
//! Traps freeze the machine state exactly like a POSIX signal: the program
//! counter still points at the faulting instruction and every register holds
//! its pre-fault value, so a handler (Safeguard) can inspect the state,
//! patch a register and resume — re-executing the faulting instruction —
//! precisely the `ucontext_t` dance of the paper's runtime.

use crate::engine::{CompiledEngine, ExecutionEngine};
use crate::image::{
    LoadedModule, MachineFunction, MachineModule, ModuleId, ProcessImage, DATA_BASE, EXE_BASE,
    HEAP_BASE, LIB_BASE, STACK_SIZE, STACK_TOP,
};
use crate::isa::{MInst, Reg, Src, FP, NUM_REGS, SP};
use std::sync::Arc;
use tinyir::interp::{
    eval_bin, eval_cast, eval_fcmp, eval_icmp, eval_intrinsic, float_of_bits, sext_bits, FaultKind,
};
use tinyir::mem::{MemFault, PagedMemory};
use tinyir::{FuncId, Intrinsic, Ty};

/// Why the machine stopped.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TrapKind {
    /// Invalid memory reference (`SIGSEGV`) at the given address.
    Segv(u64),
    /// Misaligned access (`SIGBUS`) at the given address.
    Bus(u64),
    /// Integer division error (`SIGFPE`).
    Fpe,
    /// `abort()` / failed assertion (`SIGABRT`).
    Abort,
    /// Instruction budget exhausted (classified as a hang).
    OutOfFuel,
}

/// The signal a faulting memory access raises, on either engine.
impl From<MemFault> for TrapKind {
    fn from(e: MemFault) -> TrapKind {
        match e {
            MemFault::Unmapped(a) => TrapKind::Segv(a),
            MemFault::Misaligned(a) => TrapKind::Bus(a),
        }
    }
}

/// A trap: the signal-like kind plus the faulting PC.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Trap {
    /// What happened.
    pub kind: TrapKind,
    /// Absolute PC of the faulting instruction.
    pub pc: u64,
}

/// Result of [`Process::run`] and of
/// [`ExecutionEngine::run_instrumented`](crate::ExecutionEngine::run_instrumented).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum RunExit {
    /// The start function returned (with its raw-bit result).
    Done(Option<u64>),
    /// A trap occurred; machine state is frozen at the faulting instruction.
    Trapped(Trap),
    /// A stop of the run's [`BreakSet`] fired right after executing its
    /// instruction.
    BreakHit,
}

/// What the last executed instruction wrote — the fault-injection
/// "destination operand" (paper §2.1.1).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum DestRef {
    /// A register of the current frame.
    Reg(Reg),
    /// A memory cell (address + size) — destinations of stores.
    Mem(u64, u8),
    /// The program counter — destinations of control transfers.
    Pc,
}

/// One call frame: private register file (the calling convention saves and
/// restores all registers across calls) plus incoming arguments.
#[derive(Clone, PartialEq, Debug)]
pub struct Frame {
    /// Module of the executing function.
    pub module: ModuleId,
    /// Function id within the module.
    pub func: FuncId,
    /// Index of the next instruction to execute.
    pub idx: usize,
    /// Register file (raw bits; float registers are `16..32`).
    pub regs: [u64; NUM_REGS],
    /// Incoming arguments.
    pub args: Vec<u64>,
    /// Frame base (FP value).
    pub fp: u64,
    /// Caller register that receives the return value.
    pub ret_dst: Option<Reg>,
    /// Stack pointer to restore on return.
    pub saved_sp: u64,
}

/// Per-static-instruction execution counts, indexed `[module][func][inst]` —
/// the Pin-style profile the campaign's `(I, n)` sampling is built on.
pub type Profile = Vec<Vec<Vec<u64>>>;

/// The stops of an instrumented run: for each static instruction, the
/// pending execution ordinals at which the machine stops, right *after* that
/// execution.
///
/// This is the one stop mechanism. The trellis cursor registers the sampled
/// `(module, func, inst, nth)` injection points of one stretch of the run
/// and advances a process through it, snapshot-forking at each hit; a
/// single breakpoint is a one-entry set ([`Instrument::stop_after`]). The
/// set counts executions itself, from the first run it is handed to.
#[derive(Clone, Debug, Default)]
pub struct BreakSet {
    /// Each function's stops, indexed `[module][func]` — the stepping
    /// reference consults them on every step, and the compiled engine
    /// takes the executing function's once per entry into it. Grown by
    /// `add` to cover the registered functions only; a function outside it
    /// has nothing pending.
    funcs: Vec<Vec<FuncStops>>,
    /// Total pending ordinals across all instructions.
    remaining: usize,
    /// The point whose ordinal fired on the last `BreakHit`, consumed by
    /// [`BreakSet::take_fired`].
    fired: Option<(ModuleId, FuncId, usize, u64)>,
}

/// One function's stops.
#[derive(Clone, Debug, Default)]
pub(crate) struct FuncStops {
    /// Pending ordinals per instruction, indexed by instruction. Grown by
    /// `add` to cover the registered instructions only.
    insts: Vec<PendingNths>,
    /// Instructions with an ordinal pending.
    pending: usize,
}

#[derive(Clone, Debug, Default)]
struct PendingNths {
    /// Executions of this instruction observed while it had ordinals
    /// pending (reset when the last one fires).
    seen: u64,
    /// Pending stop ordinals, sorted descending (`last()` fires next).
    nths: Vec<u64>,
}

/// `v[i]`, growing `v` with defaults to make the index valid.
fn slot_mut<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

impl FuncStops {
    /// Note one execution of `inst`; the ordinal that fired, if one did. An
    /// instruction with nothing pending is not counted.
    #[inline]
    pub(crate) fn note(&mut self, inst: usize) -> Option<u64> {
        let p = self.insts.get_mut(inst).filter(|p| !p.nths.is_empty())?;
        p.seen += 1;
        if p.nths.last() != Some(&p.seen) {
            return None;
        }
        p.nths.pop();
        let nth = p.seen;
        if p.nths.is_empty() {
            p.seen = 0;
            self.pending -= 1;
        }
        Some(nth)
    }
}

impl BreakSet {
    /// An empty set (never fires).
    pub fn new() -> BreakSet {
        BreakSet::default()
    }

    /// Register a stop after the `nth` execution of `(module, func, inst)`.
    /// Returns `false` without registering anything when this exact point
    /// is already pending (it fires only once), or when `nth` is 0 —
    /// ordinals are 1-based, so that stop could never fire and would keep
    /// the set non-empty to program exit.
    pub fn add(&mut self, module: ModuleId, func: FuncId, inst: usize, nth: u64) -> bool {
        if nth == 0 {
            return false;
        }
        let fs = slot_mut(slot_mut(&mut self.funcs, module.0 as usize), func.0 as usize);
        let p = slot_mut(&mut fs.insts, inst);
        match p.nths.binary_search_by(|x| nth.cmp(x)) {
            Ok(_) => false,
            Err(i) => {
                fs.pending += p.nths.is_empty() as usize;
                p.nths.insert(i, nth);
                self.remaining += 1;
                true
            }
        }
    }

    /// True when every registered ordinal has fired.
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }

    /// Ordinals still pending.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The point that caused the last `BreakHit` (cleared on read).
    pub fn take_fired(&mut self) -> Option<(ModuleId, FuncId, usize, u64)> {
        self.fired.take()
    }

    /// The stops of `(module, func)`; `None` when it has none pending.
    #[inline]
    pub(crate) fn func_mut(&mut self, module: ModuleId, func: FuncId) -> Option<&mut FuncStops> {
        if self.remaining == 0 {
            return None;
        }
        let fs = self.funcs.get_mut(module.0 as usize)?.get_mut(func.0 as usize)?;
        (fs.pending > 0).then_some(fs)
    }

    /// Account for ordinal `nth` of `(module, func, inst)`, which
    /// [`FuncStops::note`] reported fired.
    pub(crate) fn record_fired(&mut self, module: ModuleId, func: FuncId, inst: usize, nth: u64) {
        self.remaining -= 1;
        self.fired = Some((module, func, inst, nth));
    }

    /// Note one execution of `(module, func, inst)`; true when a pending
    /// ordinal fires. An instruction whose last ordinal fired starts over
    /// from zero if it is registered again.
    pub(crate) fn note(&mut self, module: ModuleId, func: FuncId, inst: usize) -> bool {
        let Some(nth) = self.func_mut(module, func).and_then(|fs| fs.note(inst)) else {
            return false;
        };
        self.record_fired(module, func, inst, nth);
        true
    }
}

/// What an instrumented run counts and where it stops. The caller keeps it
/// across runs, so counts accumulate and ordinals keep counting.
#[derive(Clone, Debug, Default)]
pub struct Instrument {
    /// Execution counts to add to, shaped by [`Instrument::profiling`].
    pub profile: Option<Profile>,
    /// Where the run stops; an empty set never does.
    pub stops: BreakSet,
}

impl Instrument {
    /// Zeroed counts for every static instruction of `image`, and no stops.
    pub fn profiling(image: &ProcessImage) -> Instrument {
        let zeroed = |f: &MachineFunction| vec![0u64; f.instrs.len()];
        let profile = image.modules.iter().map(|lm| lm.module.funcs.iter().map(zeroed).collect());
        Instrument { profile: Some(profile.collect()), stops: BreakSet::new() }
    }

    /// One stop, right after the `nth` (≥ 1) execution of `(module, func,
    /// inst)`, and no counts.
    pub fn stop_after(module: ModuleId, func: FuncId, inst: usize, nth: u64) -> Instrument {
        let mut stops = BreakSet::new();
        stops.add(module, func, inst, nth);
        Instrument { profile: None, stops }
    }
}

/// A simulated process: image + memory + frames.
///
/// `Clone` is a *snapshot fork*: the image is `Arc`-shared, memory pages are
/// copy-on-write, and only the frames (registers + small metadata) are
/// deep-copied — so forking a paused process at an injection point is cheap
/// regardless of workload size.
#[derive(Clone)]
pub struct Process {
    /// Loaded modules and symbol resolution (shared, immutable after
    /// construction).
    pub image: Arc<ProcessImage>,
    /// The paged address space.
    pub mem: PagedMemory,
    /// Call stack (last = current frame).
    pub frames: Vec<Frame>,
    /// Current stack pointer (grows downward).
    pub sp: u64,
    /// Heap bump pointer.
    pub heap_ptr: u64,
    /// Remaining instruction budget.
    pub fuel: u64,
    /// Dynamic instructions executed.
    pub steps: u64,
    /// Number of traps delivered so far (a tally for observers: nothing a run
    /// does depends on it).
    pub trap_count: u64,
    /// Shim for carebench, read only by [`Process::run`]: the next `run` stops
    /// as [`Instrument::stop_after`] with these would, and clears it.
    pub break_at: Option<(ModuleId, FuncId, usize, u64)>,
    /// The same shim's profile, set by [`Process::enable_profile`].
    profile: Option<Profile>,
}

impl Process {
    /// Build a process from an executable and a set of shared libraries.
    /// Maps and initialises each module's globals and the stack.
    ///
    /// The modules are shared, not copied: building a process from an
    /// already-compiled app is O(globals), so campaigns can construct one
    /// per injection without re-cloning code, debug data or IR.
    pub fn new(exe: impl Into<Arc<MachineModule>>, libs: Vec<Arc<MachineModule>>) -> Process {
        let mut mem = PagedMemory::new();
        let mut image = ProcessImage::default();
        let mut data_base = DATA_BASE;
        let mut code_base = EXE_BASE;
        for (i, module) in std::iter::once(exe.into()).chain(libs).enumerate() {
            let global_addrs = tinyir::interp::layout_globals(&module.ir, &mut mem, data_base);
            data_base =
                global_addrs.last().map(|&a| a + 0x0800_0000).unwrap_or(data_base + 0x0800_0000);
            image.push_module(LoadedModule {
                base: code_base,
                module,
                global_addrs,
                is_shared: i > 0,
            });
            code_base = if i == 0 { LIB_BASE } else { code_base + 0x0100_0000 };
        }
        image.link();
        // Map the stack eagerly (its pages never fault; corrupted in-stack
        // addresses corrupt data instead, like a real contiguous stack).
        // With copy-on-write pages this maps 32 MiB of zero-page aliases
        // without allocating.
        mem.map_region(STACK_TOP - STACK_SIZE, STACK_SIZE);
        Process {
            image: Arc::new(image),
            mem,
            frames: Vec::new(),
            sp: STACK_TOP,
            heap_ptr: HEAP_BASE,
            fuel: u64::MAX,
            steps: 0,
            trap_count: 0,
            break_at: None,
            profile: None,
        }
    }

    /// Shim for carebench: every later [`run`](Process::run) counts, on the
    /// compiled engine's instrumented run, into a profile nothing reads back.
    pub fn enable_profile(&mut self) {
        self.profile = Instrument::profiling(&self.image).profile;
    }

    /// Push the initial frame for `func_name` in the executable module.
    pub fn start(&mut self, func_name: &str, args: &[u64]) {
        let fid = self.image.modules[0]
            .module
            .func_by_name(func_name)
            .unwrap_or_else(|| panic!("no function {func_name}"));
        self.parts().push_frame(ModuleId(0), fid, args.to_vec(), None).expect("initial frame");
    }

    /// This process taken apart for a run ([`Parts`]).
    #[inline(always)]
    pub(crate) fn parts(&mut self) -> Parts<'_> {
        let Process { image, frames, mem, sp, heap_ptr, trap_count, .. } = self;
        Parts { image, frames, mem, sp, heap_ptr, trap_count }
    }

    /// Absolute PC of the instruction about to execute (or just trapped).
    pub fn pc(&self) -> u64 {
        pc_of(&self.image, &self.frames)
    }

    /// Current frame (panics if the process has not started).
    pub fn frame(&self) -> &Frame {
        self.frames.last().expect("no frame")
    }

    /// Mutable current frame.
    pub fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("no frame")
    }

    /// Read a register of the current frame.
    pub fn read_reg(&self, r: Reg) -> u64 {
        self.frame().regs[r.0 as usize]
    }

    /// Write a register of the current frame.
    pub fn write_reg(&mut self, r: Reg, v: u64) {
        self.frame_mut().regs[r.0 as usize] = v;
    }

    /// The instruction the PC points at.
    pub fn current_inst(&self) -> Option<&MInst> {
        let f = self.frames.last()?;
        self.image.modules[f.module.0 as usize].module.funcs[f.func.0 as usize].instrs.get(f.idx)
    }

    /// The destination operand of the instruction at the current PC,
    /// resolved against current register values (used by the injector right
    /// after a breakpoint, when `idx` has already advanced past the target —
    /// pass the instruction explicitly in that case).
    pub fn dest_of(&self, inst: &MInst, frame: &Frame) -> DestRef {
        if inst.is_control() {
            return DestRef::Pc;
        }
        if let MInst::Store { mem, size, .. } = inst {
            let addr = mem.effective(|r| frame.regs[r.0 as usize]);
            return DestRef::Mem(addr, *size);
        }
        match inst.dest_reg() {
            Some(r) => DestRef::Reg(r),
            None => DestRef::Pc,
        }
    }

    /// Evaluate a source operand against one frame. A free-standing helper
    /// (rather than `&mut self`) so the step loop can keep its `&mut Frame`
    /// borrow while lending out `&mut self.mem` — disjoint field borrows.
    #[inline(always)]
    fn eval_src(
        frame: &Frame,
        mem: &mut PagedMemory,
        image: &ProcessImage,
        src: Src,
    ) -> Result<u64, MemFault> {
        match src {
            Src::Reg(r) => Ok(frame.regs[r.0 as usize]),
            Src::Imm(v) => Ok(v),
            Src::Mem(m, size) => {
                let addr = m.effective(|r| frame.regs[r.0 as usize]);
                mem.load(addr, size as u32)
            }
            Src::Global(g) => Ok(image.modules[frame.module.0 as usize].global_addrs[g.0 as usize]),
        }
    }

    /// Run until completion or trap on the interpreter's one step loop,
    /// which has no profile count and no stop check. Only the carebench
    /// shim — [`break_at`](Process::break_at) or
    /// [`enable_profile`](Process::enable_profile) set — makes it build the
    /// same [`Instrument`] and run it on the compiled engine instead.
    pub fn run(&mut self) -> RunExit {
        if self.profile.is_none() && self.break_at.is_none() {
            return self.run_loop();
        }
        self.run_shim()
    }

    /// The carebench shim's run: translate the image (one translation per
    /// run) and run the [`Instrument`] the shim's fields describe on it.
    #[cold]
    #[inline(never)]
    fn run_shim(&mut self) -> RunExit {
        let stop = self.break_at.take().map(|(m, f, i, n)| Instrument::stop_after(m, f, i, n));
        let mut instr = Instrument { profile: self.profile.take(), ..stop.unwrap_or_default() };
        let exit = CompiledEngine::for_image(&self.image).run_instrumented(self, &mut instr);
        self.profile = instr.profile;
        exit
    }

    /// True when `self` and `other` are the same machine state of the same
    /// program, so that — run deterministically — they execute the same
    /// instructions to the same end: equal call stack
    /// (every frame's PC, registers, arguments and saved pointers), `sp` and
    /// `heap_ptr`, one shared image, and [`PagedMemory::same_contents`].
    /// Conservative like that: `false` may be a missed equality, `true` is
    /// never a wrong one.
    ///
    /// Five things are deliberately outside it. `fuel` is a budget the
    /// caller set, not machine state: two equal processes still end
    /// differently when one runs dry first, which is the caller's to check.
    /// `steps` is where the caller paused to ask: a run Safeguard repaired
    /// re-executed each faulting instruction, so it reaches the state another
    /// run had at step `t` at `t` plus its repairs, and from there the two
    /// take the same number of steps to the same end. `trap_count` is a
    /// tally of traps delivered that nothing reads to decide anything.
    /// `mem.stats` counts accesses already made and the TLBs cache
    /// translations; neither changes what a later access returns.
    pub fn same_state(&self, other: &Process) -> bool {
        self.sp == other.sp
            && self.heap_ptr == other.heap_ptr
            && Arc::ptr_eq(&self.image, &other.image)
            && self.frames == other.frames
            && self.mem.same_contents(&other.mem)
    }

    /// The hot loop reads the (immutable) image through the process taken
    /// apart ([`Parts`]), so each step borrows the current instruction in
    /// place instead of cloning it, and no entry pays a reference-count
    /// round trip on the image; it caches the executing function across
    /// steps so straight-line code pays no module/function lookups. `fuel`
    /// and `steps` are carried in locals across the whole block of steps (no
    /// per-step memory round-trip through `self`) and written back on every
    /// exit, so the externally visible accounting is exact — a trap freezes
    /// with the counters exactly as the per-step version would leave them,
    /// which the hang-latency buckets of Table 4 rely on. It inlines into
    /// `run`: out of line, it kept `steps` in memory and lost ≈ 4 % per step
    /// (aligned builds).
    #[inline(always)]
    fn run_loop(&mut self) -> RunExit {
        let mut fuel = self.fuel;
        let mut steps = self.steps;
        let mut m = self.parts();
        let mut cursor: FrameCursor<'_> = None;
        let exit = loop {
            match m.step_in(&mut cursor, &mut fuel, &mut steps) {
                StepOut::Continue => {}
                StepOut::Done(v) => break RunExit::Done(v),
                StepOut::Trap(t) => break m.deliver(t),
                StepOut::Intr { which, argv, dst } => {
                    if let Err(t) = m.finish_intrinsic(which, &argv, dst) {
                        break m.deliver(t);
                    }
                }
                StepOut::Ret { val } => {
                    if m.ret(val) {
                        break RunExit::Done(val);
                    }
                }
            }
        };
        self.fuel = fuel;
        self.steps = steps;
        exit
    }

    /// Read the bits of a global variable by name (test/verification aid).
    pub fn read_global(&mut self, name: &str, elem: u64, ty: Ty) -> Option<u64> {
        let addr = self.image.global_addr_by_name(name)?;
        self.mem.load(addr + elem * ty.size() as u64, ty.size()).ok()
    }

    /// Snapshot the raw bytes of a named global (SDC comparison).
    pub fn snapshot_global(&self, name: &str, len: u64) -> Option<Vec<u8>> {
        let addr = self.image.global_addr_by_name(name)?;
        let mut buf = vec![0u8; len as usize];
        self.mem.read_bytes(addr, &mut buf).ok()?;
        Some(buf)
    }
}

/// A process taken apart for a run: the image it executes, borrowed beside
/// the state a run changes. Both engines' loops read instructions through
/// `image` in place while they write frames and memory, so a run holds no
/// handle of its own on the image and an entry costs no reference-count
/// round trip.
pub(crate) struct Parts<'p> {
    pub(crate) image: &'p ProcessImage,
    pub(crate) frames: &'p mut Vec<Frame>,
    pub(crate) mem: &'p mut PagedMemory,
    sp: &'p mut u64,
    heap_ptr: &'p mut u64,
    trap_count: &'p mut u64,
}

impl<'p> Parts<'p> {
    pub(crate) fn push_frame(
        &mut self,
        module: ModuleId,
        func: FuncId,
        args: Vec<u64>,
        ret_dst: Option<Reg>,
    ) -> Result<(), Trap> {
        let (module, func) = self.image.resolve(module, func).ok_or(Trap {
            kind: TrapKind::Segv(0), // unresolved PLT entry: jump to nowhere
            pc: 0,
        })?;
        let mf = &self.image.modules[module.0 as usize].module.funcs[func.0 as usize];
        let frame_size = (mf.frame_size + 15) & !15;
        let saved_sp = *self.sp;
        let new_sp =
            self.sp.checked_sub(frame_size + 64).ok_or(Trap { kind: TrapKind::Segv(0), pc: 0 })?;
        if new_sp < STACK_TOP - STACK_SIZE {
            // Stack overflow hits the guard page.
            return Err(Trap { kind: TrapKind::Segv(new_sp), pc: self.pc() });
        }
        *self.sp = new_sp;
        let mut regs = [0u64; NUM_REGS];
        regs[FP.0 as usize] = new_sp;
        regs[SP.0 as usize] = new_sp;
        self.frames.push(Frame { module, func, idx: 0, regs, args, fp: new_sp, ret_dst, saved_sp });
        Ok(())
    }

    /// Deliver a trap: the machine stays frozen where `t` was raised and the
    /// trap is counted. Both engines end a run on a trap through here.
    #[inline]
    pub(crate) fn deliver(&mut self, t: Trap) -> RunExit {
        *self.trap_count += 1;
        RunExit::Trapped(t)
    }

    /// Finish the `CallIntr` the top frame stands on, its arguments already
    /// evaluated: write the result to `dst` and step past the call, or trap
    /// with the PC still on the call.
    #[inline]
    pub(crate) fn finish_intrinsic(
        &mut self,
        which: Intrinsic,
        argv: &[u64],
        dst: Option<Reg>,
    ) -> Result<(), Trap> {
        match eval_intrinsic(which, argv, self.mem, self.heap_ptr) {
            Ok(r) => {
                let frame = self.frames.last_mut().expect("frame");
                if let (Some(d), Some(v)) = (dst, r) {
                    frame.regs[d.0 as usize] = v;
                }
                frame.idx += 1;
                Ok(())
            }
            Err(k) => {
                debug_assert_eq!(k, FaultKind::Abort, "the only fault an intrinsic raises");
                Err(Trap { kind: TrapKind::Abort, pc: self.pc() })
            }
        }
    }

    /// Return `val` from the top frame: pop it, restore `sp`, and write `val`
    /// to the caller's `ret_dst`. `true` when that was the last frame, i.e.
    /// the program finished with `val`.
    #[inline]
    pub(crate) fn ret(&mut self, val: Option<u64>) -> bool {
        let popped = self.frames.pop().expect("frame");
        *self.sp = popped.saved_sp;
        let Some(caller) = self.frames.last_mut() else { return true };
        if let (Some(d), Some(v)) = (popped.ret_dst, val) {
            caller.regs[d.0 as usize] = v;
        }
        false
    }

    fn pc(&self) -> u64 {
        pc_of(self.image, self.frames)
    }

    #[inline(always)]
    fn step_in(
        &mut self,
        cursor: &mut FrameCursor<'p>,
        fuel: &mut u64,
        steps: &mut u64,
    ) -> StepOut {
        // One mutable borrow of the top frame for the whole step: register
        // reads/writes go through it directly instead of re-indexing
        // `self.frames` (and re-proving the bounds) per operand. A call ends
        // the borrow and pushes its frame here; an intrinsic or a return is
        // handed to `run_loop`, which finishes it with the method the
        // compiled engine uses. Finished in here instead, they cost the
        // fast loop ≈ 10 % per step on every workload (aligned builds),
        // though neither is on its hot path.
        let image = self.image;
        let Some(frame) = self.frames.last_mut() else {
            return StepOut::Done(None);
        };
        let (mid, fid, idx) = (frame.module, frame.func, frame.idx);
        // Function lookup is cached across steps; it changes only on
        // call/return (and a recursive call re-resolves to the same entry).
        let mf = match cursor {
            Some((cm, cf, mf)) if *cm == mid && *cf == fid => *mf,
            _ => {
                let mf = &image.modules[mid.0 as usize].module.funcs[fid.0 as usize];
                *cursor = Some((mid, fid, mf));
                mf
            }
        };
        // The PC is only needed on (rare) trap exits; avoid the address
        // arithmetic on the hot path.
        let pc = || image.addr_of(mid, fid, idx);
        if idx >= mf.instrs.len() {
            // Wild PC (corrupted control flow): invalid instruction fetch.
            let pc = pc();
            return StepOut::Trap(Trap { kind: TrapKind::Segv(pc), pc });
        }
        if *fuel == 0 {
            let pc = pc();
            return StepOut::Trap(Trap { kind: TrapKind::OutOfFuel, pc });
        }
        *fuel -= 1;
        *steps += 1;

        let inst = &mf.instrs[idx];
        let trap = |k: TrapKind| StepOut::Trap(Trap { kind: k, pc: pc() });

        match inst {
            MInst::Mov { dst, src, size, sext } => {
                let mut v = match Process::eval_src(frame, self.mem, image, *src) {
                    Ok(v) => v,
                    Err(e) => return trap(e.into()),
                };
                if *sext && *size < 8 {
                    let ty = match size {
                        1 => Ty::I8,
                        2 => Ty::I16,
                        _ => Ty::I32,
                    };
                    v = sext_bits(v, ty) as u64;
                }
                frame.regs[dst.0 as usize] = v;
            }
            MInst::Store { src, mem: memop, size } => {
                let v = frame.regs[src.0 as usize];
                let addr = memop.effective(|r| frame.regs[r.0 as usize]);
                if let Err(e) = self.mem.store(addr, *size as u32, v) {
                    return trap(e.into());
                }
            }
            MInst::Lea { dst, mem: memop } => {
                let addr = memop.effective(|r| frame.regs[r.0 as usize]);
                frame.regs[dst.0 as usize] = addr;
            }
            MInst::Bin { op, dst, lhs, rhs, ty } => {
                let l = frame.regs[lhs.0 as usize];
                let r = match Process::eval_src(frame, self.mem, image, *rhs) {
                    Ok(v) => v,
                    Err(e) => return trap(e.into()),
                };
                match eval_bin(*op, l, r, *ty) {
                    Ok(v) => frame.regs[dst.0 as usize] = v,
                    Err(_) => return trap(TrapKind::Fpe),
                }
            }
            MInst::Icmp { pred, dst, lhs, rhs, ty } => {
                let l = frame.regs[lhs.0 as usize];
                let r = match Process::eval_src(frame, self.mem, image, *rhs) {
                    Ok(v) => v,
                    Err(e) => return trap(e.into()),
                };
                frame.regs[dst.0 as usize] = eval_icmp(*pred, l, r, *ty) as u64;
            }
            MInst::Fcmp { pred, dst, lhs, rhs, ty } => {
                let l = frame.regs[lhs.0 as usize];
                let r = match Process::eval_src(frame, self.mem, image, *rhs) {
                    Ok(v) => v,
                    Err(e) => return trap(e.into()),
                };
                frame.regs[dst.0 as usize] =
                    eval_fcmp(*pred, float_of_bits(l, *ty), float_of_bits(r, *ty)) as u64;
            }
            MInst::Cast { op, dst, src, from, to } => {
                let v = frame.regs[src.0 as usize];
                frame.regs[dst.0 as usize] = eval_cast(*op, v, *from, *to);
            }
            MInst::Select { dst, cond, t, f } => {
                let c = frame.regs[cond.0 as usize] & 1;
                let v = if c != 0 { frame.regs[t.0 as usize] } else { frame.regs[f.0 as usize] };
                frame.regs[dst.0 as usize] = v;
            }
            MInst::Jmp { target } => {
                frame.idx = *target as usize;
                return StepOut::Continue;
            }
            MInst::Jnz { cond, then_t, else_t } => {
                let c = frame.regs[cond.0 as usize] & 1;
                frame.idx = *(if c != 0 { then_t } else { else_t }) as usize;
                return StepOut::Continue;
            }
            MInst::GetArg { dst, idx: a } => {
                let v = frame.args.get(*a as usize).copied().unwrap_or(0);
                frame.regs[dst.0 as usize] = v;
            }
            MInst::Call { callee, args, dst } => {
                let mut argv = Vec::with_capacity(args.len());
                for s in args {
                    match Process::eval_src(frame, self.mem, image, *s) {
                        Ok(v) => argv.push(v),
                        Err(e) => return trap(e.into()),
                    }
                }
                // Advance the caller past the call before pushing the frame
                // (ends the frame borrow — push_frame needs all of self).
                frame.idx += 1;
                if let Err(t) = self.push_frame(mid, *callee, argv, *dst) {
                    return StepOut::Trap(t);
                }
                return StepOut::Continue;
            }
            MInst::CallIntr { which, args, dst } => {
                let mut argv = Vec::with_capacity(args.len());
                for s in args {
                    match Process::eval_src(frame, self.mem, image, *s) {
                        Ok(v) => argv.push(v),
                        Err(e) => return trap(e.into()),
                    }
                }
                return StepOut::Intr { which: *which, argv, dst: *dst };
            }
            MInst::Ret { src } => {
                let val = src.map(|r| frame.regs[r.0 as usize]);
                return StepOut::Ret { val };
            }
        }
        frame.idx += 1;
        StepOut::Continue
    }
}

/// Absolute PC of the top frame's next instruction; 0 with no frame.
fn pc_of(image: &ProcessImage, frames: &[Frame]) -> u64 {
    frames.last().map_or(0, |f| image.addr_of(f.module, f.func, f.idx))
}

enum StepOut {
    Continue,
    Done(Option<u64>),
    Trap(Trap),
    /// A `CallIntr` with its arguments evaluated, `idx` still on it.
    Intr {
        which: Intrinsic,
        argv: Vec<u64>,
        dst: Option<Reg>,
    },
    /// A `Ret` with its value, frame not yet popped.
    Ret {
        val: Option<u64>,
    },
}

/// Cached `(module, func, compiled function)` of the executing frame,
/// invalidated when the top frame changes identity.
type FrameCursor<'i> = Option<(ModuleId, FuncId, &'i MachineFunction)>;
