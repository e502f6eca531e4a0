//! Pluggable execution backends behind the [`ExecutionEngine`] trait.
//!
//! Two engines run a [`Process`]:
//!
//! * [`InterpEngine`] — the reference interpreter ([`Process::run`]),
//!   unchanged.
//! * [`CompiledEngine`] — the direct-threaded backend: executes the
//!   pre-decoded/fused [`Op`] stream of the [`TranslatedModule`]s it
//!   translated from its image (see `translate.rs`) instead of re-decoding
//!   `MInst`s per step.
//!
//! # Equivalence contract
//!
//! The compiled engine is **bit-identical** to the interpreter's fast loop
//! in every observable: exit value, trap kind and PC, `fuel`, `steps`,
//! `trap_count`, registers, and memory (same `PagedMemory` hot path, so
//! CoW/TLB behaviour — including the telemetry counters — is shared code).
//! The per-step check order is replicated exactly: frame? → instruction
//! fetch in bounds (wild PC traps *without* consuming fuel) → fuel (an
//! exhausted budget traps without consuming) → charge `fuel`/`steps` →
//! execute. Traps freeze `frame.idx` on the faulting instruction with its
//! pre-fault registers; fused ops freeze mid-pair on their second index,
//! which re-enters through that instruction's standalone translation. What
//! happens when a segment ends in a trap, call, intrinsic or return is not
//! restated here: [`run_compiled`] calls the same `Process` methods the
//! interpreter's loop does.
//!
//! # Fuel at block granularity
//!
//! Per-instruction fuel checks are the dispatch overhead this backend
//! exists to remove, but the budget must stay exact (hang classification
//! and Table 4's latency buckets depend on it). The engine charges fuel per
//! straight-line *segment*: at each segment entry it compares the remaining
//! budget against the translation's precomputed steps-to-block-end (`ste`,
//! see [`crate::translate`]); with enough fuel the segment body runs with
//! the per-step zero-check compiled out, otherwise the same body runs in
//! checked mode — the "interpreter fallback" for the final partial block,
//! stopping on the exact instruction the interpreter would. In-function
//! branches re-check the invariant *inline* (fuel against `ste[target]`):
//! as long as it holds, whole loops run inside one unchecked dispatch loop
//! without bouncing through the segment entry, and only the transition to
//! the final partial block pays a re-entry.
//!
//! # Instrumented runs
//!
//! An instrumented run is defined once: the interpreter's fast loop stepped
//! one instruction at a time, one [`run_to_step`] each, which is
//! [`InterpEngine`]'s, the slow reference. The compiled engine's is the fast
//! one: the same ops, monomorphized a second time with the [`Instrument`]'s
//! hooks compiled in, so plain [`ExecutionEngine::run`] pays nothing for
//! them. Every op adds its executions — each half of a fused pair its own —
//! to the profile at the fuel charge. Stops are checked per function: on
//! entering one the engine takes that function's stops from the
//! [`BreakSet`](crate::BreakSet), once. A function with none pending (most
//! functions) runs unchecked; one with some runs *stepping*, every op asking
//! its instruction's slot at the charge, noting an execution only of an
//! instruction with an ordinal pending, and ending the run after the op
//! whose ordinal fired. Within a run a function's pending set changes only
//! when an ordinal fires, which ends the run, so a function's mode holds
//! from entry to exit and an inline branch never leaves it. A fused op
//! whose first instruction fires runs as that instruction alone (its
//! standalone decode), because the translation keeps no standalone op at a
//! fused first index; the run then stops on the second instruction, which
//! does have one. Profile, ordinals and stop states are the reference's
//! exactly (`tests.rs` holds the two side by side at every budget).

use crate::cpu::{Frame, FuncStops, Instrument, Process, RunExit, Trap, TrapKind};
use crate::image::{LoadedModule, ModuleId, ProcessImage};
use crate::isa::Reg;
use crate::translate::{
    decode, translate_module, Op, SrcK, TranslateStats, TranslatedFunc, TranslatedModule, NO_REG,
};
use tinyir::interp::{eval_bin, eval_cast, eval_fcmp, eval_icmp, float_of_bits, sext_bits};
use tinyir::mem::PagedMemory;
use tinyir::{FuncId, Intrinsic};

/// Version of the engines' *observable record semantics*: what a
/// fault-injection campaign's [`InjectionRecord`](../faultsim) depends on
/// through execution (step accounting, trap classification, fuel
/// semantics, RNG-visible behaviour). Persistent result stores fold this
/// into their campaign keys, so bumping it invalidates every stored record
/// at once. Bump on any change that can alter a record; engine *kind* is
/// deliberately not part of it — both backends are pinned bit-identical.
pub const ENGINE_VERSION: u32 = 1;

/// Which backend a campaign (or CLI) selects.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineKind {
    /// The reference interpreter.
    #[default]
    Interp,
    /// The direct-threaded translation backend.
    Compiled,
}

impl EngineKind {
    /// Stable CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Interp => "interp",
            EngineKind::Compiled => "compiled",
        }
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;
    fn from_str(s: &str) -> Result<EngineKind, String> {
        match s {
            "interp" | "interpreter" => Ok(EngineKind::Interp),
            "compiled" | "compile" => Ok(EngineKind::Compiled),
            other => Err(format!("unknown engine {other:?} (expected interp|compiled)")),
        }
    }
}

/// A way to run a process to its next completion, trap or stop.
/// Object-safe so campaigns can thread one `&dyn` through their workers.
pub trait ExecutionEngine: Send + Sync {
    /// Stable engine name (telemetry and bench rows key on it).
    fn name(&self) -> &'static str;
    /// Run until completion or trap; semantics of [`Process::run`].
    fn run(&self, p: &mut Process) -> RunExit;
    /// Run until completion, trap, or one of `instr`'s stops, counting into
    /// its profile if it has one; `instr.stops` names the stop that fired
    /// ([`BreakSet::take_fired`](crate::BreakSet::take_fired)). Semantics of
    /// [`InterpEngine`]'s, the fast loop stepped one instruction at a time.
    fn run_instrumented(&self, p: &mut Process, instr: &mut Instrument) -> RunExit;
}

/// The reference interpreter as an engine.
pub struct InterpEngine;

impl ExecutionEngine for InterpEngine {
    fn name(&self) -> &'static str {
        "interp"
    }
    fn run(&self, p: &mut Process) -> RunExit {
        p.run()
    }
    /// The reference: the fast loop, one step at a time. A charged step
    /// (`steps` rose) is counted and noted with the stops; a stop that fired
    /// ends the run after it, unless the step trapped (a trap wins).
    fn run_instrumented(&self, p: &mut Process, instr: &mut Instrument) -> RunExit {
        loop {
            let at = p.frames.last().map(|f| (f.module, f.func, f.idx));
            let before = p.steps;
            let exit = run_to_step(self, p, before + 1, None);
            let fired = match at {
                Some((m, f, i)) if p.steps > before => {
                    if let Some(profile) = &mut instr.profile {
                        profile[m.0 as usize][f.0 as usize][i] += 1;
                    }
                    instr.stops.note(m, f, i)
                }
                _ => false,
            };
            match exit {
                Some(RunExit::Trapped(t)) => return RunExit::Trapped(t),
                _ if fired => return RunExit::BreakHit,
                Some(exit) => return exit,
                None => {}
            }
        }
    }
}

/// The direct-threaded backend: one translation per loaded module, owned
/// by the engine.
pub struct CompiledEngine {
    /// Translations indexed by [`ModuleId`].
    trans: Vec<TranslatedModule>,
}

impl CompiledEngine {
    /// Translate every module of an image. Each call translates afresh, so
    /// build one engine per image and share it: a campaign builds its own
    /// once, and every trellis fork and suffix runs on that one.
    pub fn for_image(image: &ProcessImage) -> CompiledEngine {
        CompiledEngine {
            trans: image.modules.iter().map(|lm| translate_module(&lm.module)).collect(),
        }
    }

    /// Summed translation statistics across this engine's modules.
    pub fn stats(&self) -> TranslateStats {
        let mut s = TranslateStats::default();
        for t in &self.trans {
            s.merge(&t.stats);
        }
        s
    }
}

impl ExecutionEngine for CompiledEngine {
    fn name(&self) -> &'static str {
        "compiled"
    }

    fn run(&self, p: &mut Process) -> RunExit {
        run_compiled::<false>(self, p, &mut Instrument::default())
    }

    fn run_instrumented(&self, p: &mut Process, instr: &mut Instrument) -> RunExit {
        run_compiled::<true>(self, p, instr)
    }
}

/// Run `p` on `engine` until it has executed exactly `target` steps and
/// pause there, leaving the process indistinguishable from one that stopped
/// at a stop: `steps == target`, the PC frozen on the next instruction,
/// `fuel` charged for exactly the steps executed, and `trap_count`
/// untouched (the internal out-of-fuel pause is an implementation detail,
/// not an observed trap). With `instr` the stretch runs instrumented, so a
/// profile handed along slice after slice counts like one run's; without,
/// it replays at the engine's full speed.
///
/// Returns `None` once paused — at once when `p` is already at or past
/// `target` — and `Some(exit)` when the program does not get there: it
/// completed, trapped, stopped, or ran out of the *caller's* fuel first, each
/// exactly as a plain run on `engine` would have left it.
pub fn run_to_step(
    engine: &dyn ExecutionEngine,
    p: &mut Process,
    target: u64,
    instr: Option<&mut Instrument>,
) -> Option<RunExit> {
    let need = target.saturating_sub(p.steps);
    if need == 0 {
        return None;
    }
    // Grant only this stretch; the rest of the caller's budget sits out.
    let held = p.fuel.saturating_sub(need);
    p.fuel -= held;
    let traps_before = p.trap_count;
    let exit = match instr {
        Some(instr) => engine.run_instrumented(p, instr),
        None => engine.run(p),
    };
    p.fuel += held;
    match exit {
        RunExit::Trapped(Trap { kind: TrapKind::OutOfFuel, .. }) if p.steps == target => {
            p.trap_count = traps_before;
            None
        }
        other => Some(other),
    }
}

/// [`run_to_step`] as a yes/no replay: `true` when `p` now stands at exactly
/// `target` executed steps. `false` when it was already past it, or when the
/// program completes, traps, or runs out of the caller's fuel at or before
/// `target` — none of which can happen when replaying a deterministic
/// program known to run strictly past `target` steps.
pub fn advance_to_step(engine: &dyn ExecutionEngine, p: &mut Process, target: u64) -> bool {
    run_to_step(engine, p, target, None).is_none() && p.steps == target
}

/// Why a segment execution stopped.
enum SegEvent {
    /// Control transferred (or ran off the translation); `frame.idx` holds
    /// the new PC — re-enter through the segment entry.
    Redirect,
    /// Trap; `frame.idx` frozen on the faulting instruction.
    Trap(Trap),
    /// A `Call` op: arguments evaluated, caller's `idx` already advanced.
    Call { callee: u32, argv: Vec<u64>, dst: u8 },
    /// A `CallIntr` op: arguments evaluated, `idx` *not* advanced (the
    /// intrinsic may trap at this PC).
    Intr { which: Intrinsic, argv: Vec<u64>, dst: u8 },
    /// A `Ret` op with its (raw-bit) value.
    Ret { val: Option<u64> },
    /// A stop fired on the straight-line op or branch just executed;
    /// `frame.idx` holds the next PC.
    Break,
}

/// An instrumented run's hooks into the executing function's segments.
struct Hooks<'a> {
    /// The executing function's row of the profile; empty when the run
    /// keeps none.
    counts: &'a mut [u64],
    /// The executing function's stops; `None` when it has none pending.
    stops: Option<&'a mut FuncStops>,
    /// The instruction and ordinal of a stop that fired on the op being
    /// executed: the run ends once it completes (a trap still wins, as in
    /// the reference).
    hit: Option<(usize, u64)>,
}

/// Run `p` on the translated ops. `HOOKED` is a monomorphization constant:
/// `false` for [`ExecutionEngine::run`], which never reads `instr`, `true`
/// for [`ExecutionEngine::run_instrumented`].
fn run_compiled<const HOOKED: bool>(
    eng: &CompiledEngine,
    p: &mut Process,
    instr: &mut Instrument,
) -> RunExit {
    // Like the interpreter's `run_loop`: carry the counters in locals and
    // write them back on every exit, so trap states observe exact values.
    let mut fuel = p.fuel;
    let mut steps = p.steps;
    let mut m = p.parts();
    let image = m.image;
    let exit = loop {
        // Resolve the (possibly new) top frame's translation.
        let (mid, fid) = match m.frames.last() {
            Some(f) => (f.module, f.func),
            None => break RunExit::Done(None),
        };
        let tf = &eng.trans[mid.0 as usize].funcs[fid.0 as usize];
        let lm = &image.modules[mid.0 as usize];
        let frame = m.frames.last_mut().expect("frame");
        let mut hk = Hooks {
            counts: match instr.profile.as_mut() {
                Some(prof) if HOOKED => &mut prof[mid.0 as usize][fid.0 as usize],
                _ => &mut [],
            },
            stops: if HOOKED { instr.stops.func_mut(mid, fid) } else { None },
            hit: None,
        };
        // Segment loop: each iteration runs one straight-line segment,
        // choosing checked or unchecked fuel accounting by comparing the
        // budget against the segment's precomputed step count.
        let ev = loop {
            let idx = frame.idx;
            let Some(&need) = tf.ste.get(idx) else {
                // Wild PC (corrupted control flow, or a declaration): the
                // fetch fails before any fuel is consumed.
                let pc = image.addr_of(mid, fid, idx);
                break SegEvent::Trap(Trap { kind: TrapKind::Segv(pc), pc });
            };
            let ev = if fuel >= need as u64 {
                exec_segment::<false, HOOKED>(
                    frame, m.mem, lm, tf, image, mid, fid, &mut fuel, &mut steps, &mut hk,
                )
            } else {
                exec_segment::<true, HOOKED>(
                    frame, m.mem, lm, tf, image, mid, fid, &mut fuel, &mut steps, &mut hk,
                )
            };
            match ev {
                SegEvent::Redirect => continue,
                other => break other,
            }
        };
        let fired = if HOOKED { hk.hit } else { None };
        if let Some((inst, nth)) = fired {
            instr.stops.record_fired(mid, fid, inst, nth);
        }
        let hit = fired.is_some();
        let transition = match ev {
            SegEvent::Redirect => unreachable!(),
            SegEvent::Break => break RunExit::BreakHit,
            SegEvent::Trap(t) => Err(t),
            SegEvent::Call { callee, argv, dst } => {
                m.push_frame(mid, FuncId(callee), argv, (dst != NO_REG).then_some(Reg(dst)))
            }
            SegEvent::Intr { which, argv, dst } => {
                m.finish_intrinsic(which, &argv, (dst != NO_REG).then_some(Reg(dst)))
            }
            SegEvent::Ret { val } => {
                // A stop on the last return stops with the frames gone,
                // before the run is seen to be done — as in the reference.
                if m.ret(val) && !hit {
                    break RunExit::Done(val);
                }
                Ok(())
            }
        };
        if let Err(t) = transition {
            break m.deliver(t);
        }
        if hit {
            break RunExit::BreakHit;
        }
    };
    p.fuel = fuel;
    p.steps = steps;
    exit
}

/// Execute pre-decoded ops from `frame.idx` until a call, return,
/// intrinsic, trap, or a branch that breaks the mode invariant. `CHECKED`
/// is a monomorphization constant: `false` when the caller proved
/// `fuel >= ste[entry]` (the per-step fuel-zero check compiles out, and
/// in-function branches keep running inline while `fuel >= ste[target]`),
/// `true` for the final partial block (every sub-step re-checks, trapping
/// `OutOfFuel` on the exact instruction the interpreter would). `HOOKED`
/// compiles in `hk` (see the module doc's "Instrumented runs").
#[allow(clippy::too_many_arguments)]
fn exec_segment<const CHECKED: bool, const HOOKED: bool>(
    frame: &mut Frame,
    mem: &mut PagedMemory,
    lm: &LoadedModule,
    tf: &TranslatedFunc,
    image: &ProcessImage,
    mid: ModuleId,
    fid: FuncId,
    fuel: &mut u64,
    steps: &mut u64,
    hk: &mut Hooks<'_>,
) -> SegEvent {
    // The dispatch index lives in a local; `frame.idx` is only written on
    // the ways out (trap, call, intrinsic, control transfer, ran-off), not
    // once per op. Every trap funnels through here, so "freeze `frame.idx`
    // on the faulting instruction" holds by construction — including the
    // mid-pair freezes of fused ops, which trap at `idx + 1`.
    macro_rules! trap_at {
        ($kind:expr, $idx:expr) => {{
            let at = $idx;
            frame.idx = at;
            let pc = image.addr_of(mid, fid, at);
            return SegEvent::Trap(Trap { kind: $kind, pc });
        }};
    }
    // Evaluate a pre-decoded source operand; a folded memory operand may
    // fault, freezing the instruction at `$idx`.
    macro_rules! srck {
        ($s:expr, $idx:expr) => {
            match $s {
                SrcK::Reg(r) => frame.regs[*r as usize],
                SrcK::Imm(v) => *v,
                SrcK::Mem(m, sz) => match mem.load(m.ea(&frame.regs), *sz as u32) {
                    Ok(v) => v,
                    Err(e) => trap_at!(e.into(), $idx),
                },
                SrcK::Global(g) => lm.global_addrs[*g as usize],
            }
        };
    }
    // Hooked, the segment runs *stepping* when an instruction of its
    // function has an ordinal pending: every execution of one is then noted
    // with `stops`.
    let Hooks { counts, stops, hit } = hk;
    let counts: &mut [u64] = counts;
    let stepping = HOOKED && stops.is_some();
    // Hooked: count one execution of an instruction and, stepping, note it
    // with the stops; true when an ordinal fired. Used at the fuel charge,
    // before the instruction executes: a charged step is a counted one.
    macro_rules! note {
        ($idx:expr) => {
            HOOKED && {
                if let Some(n) = counts.get_mut($idx) {
                    *n += 1;
                }
                stepping && {
                    let at = $idx;
                    *hit = stops.as_deref_mut().and_then(|s| s.note(at)).map(|nth| (at, nth));
                    hit.is_some()
                }
            }
        };
    }
    // Charge the second sub-step of a fused pair (the first is charged at
    // the loop head). In checked mode an exhausted budget freezes on the
    // pair's second instruction (`trap_at` writes `frame.idx`).
    macro_rules! charge_second {
        ($idx:expr) => {{
            if CHECKED && *fuel == 0 {
                trap_at!(TrapKind::OutOfFuel, $idx + 1)
            }
            *fuel -= 1;
            *steps += 1;
            // A stop that fires here is in `hit`: the op completes first.
            let _ = note!($idx + 1);
        }};
    }
    let mut idx = frame.idx;
    // Take an in-function branch without bouncing through the caller's
    // segment loop, when the mode invariant still holds at the target:
    // unchecked mode requires `fuel >= ste[target]` (else the caller
    // re-enters in checked mode), checked mode only a valid target. A wild
    // target redirects so the caller reports it without consuming fuel.
    // Hooked, a stop that fired on the branch ends the segment.
    macro_rules! jump_to {
        ($t:expr) => {{
            let t = $t;
            if stepping && hit.is_some() {
                frame.idx = t;
                return SegEvent::Break;
            }
            match tf.ste.get(t) {
                Some(&need) if CHECKED || *fuel >= need as u64 => {
                    idx = t;
                    continue;
                }
                _ => {
                    frame.idx = t;
                    return SegEvent::Redirect;
                }
            }
        }};
    }
    // Step past the op just executed (`n` instructions); hooked, a stop
    // that fired on it ends the segment there.
    macro_rules! next {
        ($n:expr) => {{
            idx += $n;
            if stepping && hit.is_some() {
                frame.idx = idx;
                return SegEvent::Break;
            }
            continue;
        }};
    }
    loop {
        let Some(op) = tf.ops.get(idx) else {
            // Ran off the translation: the segment entry re-checks and
            // reports the wild PC without consuming fuel.
            frame.idx = idx;
            return SegEvent::Redirect;
        };
        if CHECKED && *fuel == 0 {
            trap_at!(TrapKind::OutOfFuel, idx)
        }
        *fuel -= 1;
        *steps += 1;
        // A fused op whose first instruction fires runs as that instruction
        // alone, decoded afresh: `ops[idx]` holds only the pair.
        let first_alone;
        let op = if note!(idx) && op.cost() == 2 {
            first_alone = decode(&lm.module.funcs[fid.0 as usize].instrs[idx]);
            &first_alone
        } else {
            op
        };
        match op {
            Op::MovR { dst, src } => {
                frame.regs[*dst as usize] = frame.regs[*src as usize];
            }
            Op::MovRs { dst, src, ty } => {
                frame.regs[*dst as usize] = sext_bits(frame.regs[*src as usize], *ty) as u64;
            }
            Op::MovI { dst, imm } => {
                frame.regs[*dst as usize] = *imm;
            }
            Op::MovL { dst, mem: m, size } => match mem.load(m.ea(&frame.regs), *size as u32) {
                Ok(v) => frame.regs[*dst as usize] = v,
                Err(e) => trap_at!(e.into(), idx),
            },
            Op::MovLs { dst, mem: m, size, ty } => {
                match mem.load(m.ea(&frame.regs), *size as u32) {
                    Ok(v) => frame.regs[*dst as usize] = sext_bits(v, *ty) as u64,
                    Err(e) => trap_at!(e.into(), idx),
                }
            }
            Op::MovG { dst, gid, sext } => {
                let mut v = lm.global_addrs[*gid as usize];
                if let Some(ty) = sext {
                    v = sext_bits(v, *ty) as u64;
                }
                frame.regs[*dst as usize] = v;
            }
            Op::St { src, mem: m, size } => {
                let v = frame.regs[*src as usize];
                if let Err(e) = mem.store(m.ea(&frame.regs), *size as u32, v) {
                    trap_at!(e.into(), idx)
                }
            }
            Op::Lea { dst, mem: m } => {
                frame.regs[*dst as usize] = m.ea(&frame.regs);
            }
            Op::AddQ { dst, lhs, rhs } => {
                frame.regs[*dst as usize] =
                    frame.regs[*lhs as usize].wrapping_add(frame.regs[*rhs as usize]);
            }
            Op::AddQI { dst, lhs, imm } => {
                frame.regs[*dst as usize] = frame.regs[*lhs as usize].wrapping_add(*imm);
            }
            Op::SubQ { dst, lhs, rhs } => {
                frame.regs[*dst as usize] =
                    frame.regs[*lhs as usize].wrapping_sub(frame.regs[*rhs as usize]);
            }
            Op::SubQI { dst, lhs, imm } => {
                frame.regs[*dst as usize] = frame.regs[*lhs as usize].wrapping_sub(*imm);
            }
            Op::MulQ { dst, lhs, rhs } => {
                frame.regs[*dst as usize] =
                    frame.regs[*lhs as usize].wrapping_mul(frame.regs[*rhs as usize]);
            }
            Op::FAdd { dst, lhs, rhs } => {
                let v = f64::from_bits(frame.regs[*lhs as usize])
                    + f64::from_bits(frame.regs[*rhs as usize]);
                frame.regs[*dst as usize] = v.to_bits();
            }
            Op::FSub { dst, lhs, rhs } => {
                let v = f64::from_bits(frame.regs[*lhs as usize])
                    - f64::from_bits(frame.regs[*rhs as usize]);
                frame.regs[*dst as usize] = v.to_bits();
            }
            Op::FMul { dst, lhs, rhs } => {
                let v = f64::from_bits(frame.regs[*lhs as usize])
                    * f64::from_bits(frame.regs[*rhs as usize]);
                frame.regs[*dst as usize] = v.to_bits();
            }
            Op::FAddL { dst, lhs, mem: m } => {
                let r = match mem.load(m.ea(&frame.regs), 8) {
                    Ok(v) => v,
                    Err(e) => trap_at!(e.into(), idx),
                };
                let v = f64::from_bits(frame.regs[*lhs as usize]) + f64::from_bits(r);
                frame.regs[*dst as usize] = v.to_bits();
            }
            Op::FMulL { dst, lhs, mem: m } => {
                let r = match mem.load(m.ea(&frame.regs), 8) {
                    Ok(v) => v,
                    Err(e) => trap_at!(e.into(), idx),
                };
                let v = f64::from_bits(frame.regs[*lhs as usize]) * f64::from_bits(r);
                frame.regs[*dst as usize] = v.to_bits();
            }
            Op::Bin { op, dst, lhs, rhs, ty } => {
                let l = frame.regs[*lhs as usize];
                let r = srck!(rhs, idx);
                match eval_bin(*op, l, r, *ty) {
                    Ok(v) => frame.regs[*dst as usize] = v,
                    Err(_) => trap_at!(TrapKind::Fpe, idx),
                }
            }
            Op::Icmp { pred, dst, lhs, rhs, ty } => {
                let l = frame.regs[*lhs as usize];
                let r = srck!(rhs, idx);
                frame.regs[*dst as usize] = eval_icmp(*pred, l, r, *ty) as u64;
            }
            Op::Fcmp { pred, dst, lhs, rhs, ty } => {
                let l = frame.regs[*lhs as usize];
                let r = srck!(rhs, idx);
                frame.regs[*dst as usize] =
                    eval_fcmp(*pred, float_of_bits(l, *ty), float_of_bits(r, *ty)) as u64;
            }
            Op::Cast { op, dst, src, from, to } => {
                frame.regs[*dst as usize] = eval_cast(*op, frame.regs[*src as usize], *from, *to);
            }
            Op::Select { dst, cond, t, f } => {
                let c = frame.regs[*cond as usize] & 1;
                frame.regs[*dst as usize] =
                    if c != 0 { frame.regs[*t as usize] } else { frame.regs[*f as usize] };
            }
            Op::Jmp { target } => {
                jump_to!(*target as usize)
            }
            Op::Jnz { cond, then_t, else_t } => {
                let c = frame.regs[*cond as usize] & 1;
                jump_to!((if c != 0 { *then_t } else { *else_t }) as usize)
            }
            Op::GetArg { dst, idx: a } => {
                frame.regs[*dst as usize] = frame.args.get(*a as usize).copied().unwrap_or(0);
            }
            Op::Call { callee, args, dst } => {
                let mut argv = Vec::with_capacity(args.len());
                for s in args.iter() {
                    argv.push(srck!(s, idx));
                }
                // Advance past the call before the frame push, like the
                // interpreter (the stack-overflow trap PC is the return
                // site).
                frame.idx = idx + 1;
                return SegEvent::Call { callee: *callee, argv, dst: *dst };
            }
            Op::CallIntr { which, args, dst } => {
                let mut argv = Vec::with_capacity(args.len());
                for s in args.iter() {
                    argv.push(srck!(s, idx));
                }
                // `frame.idx` stays on the CallIntr until the intrinsic
                // succeeds (it may trap at this PC).
                frame.idx = idx;
                return SegEvent::Intr { which: *which, argv, dst: *dst };
            }
            Op::Ret { src } => {
                let val = (*src != NO_REG).then(|| frame.regs[*src as usize]);
                return SegEvent::Ret { val };
            }
            Op::CmpBr { pred, cdst, lhs, rhs, ty, then_t, else_t } => {
                // Sub-step 1 (charged at the loop head): the compare. A
                // folded memory rhs faults on the compare's own index.
                let l = frame.regs[*lhs as usize];
                let r = srck!(rhs, idx);
                let c = eval_icmp(*pred, l, r, *ty);
                frame.regs[*cdst as usize] = c as u64;
                // Sub-step 2: the branch.
                charge_second!(idx);
                jump_to!((if c { *then_t } else { *else_t }) as usize)
            }
            Op::GloLoad { gdst, gid, ldst, mem: m, size } => {
                // Sub-step 1: materialise the global base.
                frame.regs[*gdst as usize] = lm.global_addrs[*gid as usize];
                // Sub-step 2: the dependent (usually indexed) load.
                charge_second!(idx);
                match mem.load(m.ea(&frame.regs), *size as u32) {
                    Ok(v) => frame.regs[*ldst as usize] = v,
                    Err(e) => trap_at!(e.into(), idx + 1),
                }
                next!(2)
            }
            Op::GloFBin { gdst, gid, mul, fdst, lhs, mem: m } => {
                // Sub-step 1: materialise the global base.
                frame.regs[*gdst as usize] = lm.global_addrs[*gid as usize];
                // Sub-step 2: the f64 arithmetic with its folded memory rhs.
                charge_second!(idx);
                let r = match mem.load(m.ea(&frame.regs), 8) {
                    Ok(v) => v,
                    Err(e) => trap_at!(e.into(), idx + 1),
                };
                let l = f64::from_bits(frame.regs[*lhs as usize]);
                let r = f64::from_bits(r);
                let v = if *mul { l * r } else { l + r };
                frame.regs[*fdst as usize] = v.to_bits();
                next!(2)
            }
            Op::MovRR { d1, s1, d2, s2 } => {
                // Sub-step 1 writes `d1` before sub-step 2 reads `s2`, so
                // a rotation chain (`s2 == d1`) sees the fresh value.
                frame.regs[*d1 as usize] = frame.regs[*s1 as usize];
                charge_second!(idx);
                frame.regs[*d2 as usize] = frame.regs[*s2 as usize];
                next!(2)
            }
        }
        next!(1)
    }
}
