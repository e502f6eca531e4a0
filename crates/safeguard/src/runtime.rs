//! Safeguard — CARE's runtime half (paper §3.4, Algorithm 1).
//!
//! Safeguard plays the role of the `LD_PRELOAD`ed shared library that
//! overloads the `SIGSEGV` handler. Here its "signal handler" is
//! [`Safeguard::handle_trap`], invoked by the driver when the SimISA
//! machine traps. The steps are exactly Algorithm 1:
//!
//! 1. get the faulting instruction address from the trap context;
//! 2. `dladdr` the PC to pick the owning module (executable keyed by PC,
//!    shared library keyed by `PC − base`);
//! 3. map the offset through the line table to the `(file,line,col)` key;
//! 4. look the key up in the recovery table (decoded on demand — Safeguard
//!    holds only encoded bytes until a fault actually happens);
//! 5. `dlopen` the recovery library and `dlsym` the kernel;
//! 6. fetch each parameter via its DWARF location list (register or frame
//!    slot) — declining if the location list has no entry covering the PC;
//! 7. execute the kernel (an IR function) against the stopped process's
//!    memory;
//! 8. if the recomputed address equals the faulting address, the kernel's
//!    inputs were themselves contaminated: decline and propagate (this is
//!    the guard that prevents CARE from ever substituting an SDC for a
//!    crash, §5.2);
//! 9. otherwise disassemble the faulting instruction, recompute and patch
//!    its index register (falling back to the base register), and resume.

use crate::cost::{CostModel, RecoveryTime};
use armor::{ArmorOutput, ParamSpec, RecoveryKey, RecoveryTable};
use simx::{MemOp, ModuleId, Process, Trap, TrapKind, VarPlace, FP};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use tinyir::Module;

/// Why Safeguard declined to repair a trap. Each reason maps to a concrete
/// failure mode discussed in the paper.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DeclineReason {
    /// Not a segmentation violation (Safeguard only handles `SIGSEGV`).
    NotASegv,
    /// The faulting PC is outside any module (wild jump).
    UnknownPc,
    /// The faulting module carries no recovery table (unprotected library).
    UnprotectedModule,
    /// The line table has no row for the faulting PC.
    NoLineInfo,
    /// No recovery kernel registered under the key (payload: the source
    /// location, for diagnostics).
    NoKernelForKey(String),
    /// The recovery table failed to decode (corrupted artefact).
    BadTable(String),
    /// The table names a kernel the recovery library does not contain
    /// (payload: the kernel symbol) — a `dlsym` miss in the real runtime.
    KernelMissing(String),
    /// A parameter's location list has no entry covering the faulting PC —
    /// the value was optimised away or its register was reused.
    ParamUnavailable(String),
    /// Reading a parameter's frame slot faulted.
    ParamFetchFault,
    /// The kernel itself faulted while re-executing (contaminated input
    /// fed a wild load inside the kernel).
    KernelFault,
    /// The kernel recomputed exactly the faulting address: its inputs are
    /// contaminated; repairing would be wrong (paper footnote 2).
    SameAddress,
    /// The faulting instruction has no memory operand to patch.
    NoMemOperand,
    /// The recomputed address is incompatible with the operand shape
    /// (e.g. not reachable by patching index or base).
    UnpatchableOperand,
}

impl DeclineReason {
    /// The payload-free kind of this reason (histogram key).
    pub fn kind(&self) -> DeclineKind {
        match self {
            DeclineReason::NotASegv => DeclineKind::NotASegv,
            DeclineReason::UnknownPc => DeclineKind::UnknownPc,
            DeclineReason::UnprotectedModule => DeclineKind::UnprotectedModule,
            DeclineReason::NoLineInfo => DeclineKind::NoLineInfo,
            DeclineReason::NoKernelForKey(_) => DeclineKind::NoKernelForKey,
            DeclineReason::BadTable(_) => DeclineKind::BadTable,
            DeclineReason::KernelMissing(_) => DeclineKind::KernelMissing,
            DeclineReason::ParamUnavailable(_) => DeclineKind::ParamUnavailable,
            DeclineReason::ParamFetchFault => DeclineKind::ParamFetchFault,
            DeclineReason::KernelFault => DeclineKind::KernelFault,
            DeclineReason::SameAddress => DeclineKind::SameAddress,
            DeclineReason::NoMemOperand => DeclineKind::NoMemOperand,
            DeclineReason::UnpatchableOperand => DeclineKind::UnpatchableOperand,
        }
    }
}

/// Payload-free decline classification: what the statistics count. Cheap to
/// copy and hash, unlike the diagnostic `DeclineReason` payloads that used
/// to be rendered into strings on every decline.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeclineKind {
    /// See [`DeclineReason::NotASegv`].
    NotASegv,
    /// See [`DeclineReason::UnknownPc`].
    UnknownPc,
    /// See [`DeclineReason::UnprotectedModule`].
    UnprotectedModule,
    /// See [`DeclineReason::NoLineInfo`].
    NoLineInfo,
    /// See [`DeclineReason::NoKernelForKey`].
    NoKernelForKey,
    /// See [`DeclineReason::BadTable`].
    BadTable,
    /// See [`DeclineReason::KernelMissing`].
    KernelMissing,
    /// See [`DeclineReason::ParamUnavailable`].
    ParamUnavailable,
    /// See [`DeclineReason::ParamFetchFault`].
    ParamFetchFault,
    /// See [`DeclineReason::KernelFault`].
    KernelFault,
    /// See [`DeclineReason::SameAddress`].
    SameAddress,
    /// See [`DeclineReason::NoMemOperand`].
    NoMemOperand,
    /// See [`DeclineReason::UnpatchableOperand`].
    UnpatchableOperand,
    /// Campaign-level: the protected run exhausted its instruction budget
    /// (no single trap declined; the run as a whole did not survive).
    Hang,
}

impl DeclineKind {
    /// All kinds, in declaration order (stable iteration for reports — a
    /// `HashMap<DeclineKind, _>` has no useful order of its own).
    pub const ALL: [DeclineKind; 14] = [
        DeclineKind::NotASegv,
        DeclineKind::UnknownPc,
        DeclineKind::UnprotectedModule,
        DeclineKind::NoLineInfo,
        DeclineKind::NoKernelForKey,
        DeclineKind::BadTable,
        DeclineKind::KernelMissing,
        DeclineKind::ParamUnavailable,
        DeclineKind::ParamFetchFault,
        DeclineKind::KernelFault,
        DeclineKind::SameAddress,
        DeclineKind::NoMemOperand,
        DeclineKind::UnpatchableOperand,
        DeclineKind::Hang,
    ];

    /// Telemetry counter name for this kind (static, since hook names are
    /// `&'static str` by design — no per-decline formatting).
    pub fn counter_name(self) -> &'static str {
        match self {
            DeclineKind::NotASegv => "recovery.decline.NotASegv",
            DeclineKind::UnknownPc => "recovery.decline.UnknownPc",
            DeclineKind::UnprotectedModule => "recovery.decline.UnprotectedModule",
            DeclineKind::NoLineInfo => "recovery.decline.NoLineInfo",
            DeclineKind::NoKernelForKey => "recovery.decline.NoKernelForKey",
            DeclineKind::BadTable => "recovery.decline.BadTable",
            DeclineKind::KernelMissing => "recovery.decline.KernelMissing",
            DeclineKind::ParamUnavailable => "recovery.decline.ParamUnavailable",
            DeclineKind::ParamFetchFault => "recovery.decline.ParamFetchFault",
            DeclineKind::KernelFault => "recovery.decline.KernelFault",
            DeclineKind::SameAddress => "recovery.decline.SameAddress",
            DeclineKind::NoMemOperand => "recovery.decline.NoMemOperand",
            DeclineKind::UnpatchableOperand => "recovery.decline.UnpatchableOperand",
            DeclineKind::Hang => "recovery.decline.Hang",
        }
    }

    /// Bare kind name (the counter name without its `recovery.decline.`
    /// namespace) — used by report tables.
    pub fn short_name(self) -> &'static str {
        self.counter_name().strip_prefix("recovery.decline.").unwrap_or("unknown")
    }
}

impl std::fmt::Display for DeclineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Outcome of one `SIGSEGV` delivery.
#[derive(Clone, PartialEq, Debug)]
pub enum RecoveryOutcome {
    /// State repaired; the process may resume at the faulting PC.
    Recovered {
        /// Modelled time breakdown.
        time: RecoveryTime,
    },
    /// Declined: the default action (process death) proceeds.
    NotRecovered(DeclineReason),
}

/// A module registered for protection: the encoded recovery table plus the
/// kernel library source.
#[derive(Debug)]
struct IndexedModule {
    encoded_table: Vec<u8>,
    /// Decoded table, memoized on the first fault that needs it (the real
    /// runtime holds only encoded bytes until a fault happens; we keep the
    /// decode *result* so a campaign decodes each table at most once per
    /// index, not once per trap).
    decoded: OnceLock<Result<RecoveryTable, String>>,
    kernel_module: Module,
    kernel_count: usize,
}

impl IndexedModule {
    fn table(&self) -> &Result<RecoveryTable, String> {
        self.decoded.get_or_init(|| RecoveryTable::decode(&self.encoded_table))
    }
}

impl Clone for IndexedModule {
    fn clone(&self) -> IndexedModule {
        IndexedModule {
            encoded_table: self.encoded_table.clone(),
            // The memo travels with the clone; a clash-free OnceLock clone.
            decoded: self.decoded.clone(),
            kernel_module: self.kernel_module.clone(),
            kernel_count: self.kernel_count,
        }
    }
}

/// The keyed recovery artefacts for every protected module of a process
/// layout — built once (e.g. per campaign) and shared read-only across
/// however many `Safeguard` instances evaluate injections concurrently.
#[derive(Clone, Debug, Default)]
pub struct RecoveryIndex {
    modules: HashMap<u32, IndexedModule>,
}

impl RecoveryIndex {
    /// An empty index (no module protected).
    pub fn new() -> RecoveryIndex {
        RecoveryIndex::default()
    }

    /// Register Armor's output for the module loaded as `module_id`.
    pub fn add(&mut self, module_id: ModuleId, armor_out: &ArmorOutput) {
        self.modules.insert(
            module_id.0,
            IndexedModule {
                encoded_table: armor_out.table.encode(),
                decoded: OnceLock::new(),
                kernel_module: armor_out.kernel_module.clone(),
                kernel_count: armor_out.stats.num_kernels,
            },
        );
    }

    /// Total bytes held for protection artefacts (tables; kernels live on
    /// disk until a fault, per the lazy-loading design).
    pub fn table_bytes(&self) -> u64 {
        self.modules.values().map(|p| p.encoded_table.len() as u64).sum()
    }
}

/// The Safeguard runtime.
pub struct Safeguard {
    /// Protection artefacts, shareable between Safeguard instances.
    index: Arc<RecoveryIndex>,
    /// Cost model for the simulated latencies.
    pub cost: CostModel,
    /// Ablation: patch the base register first instead of the index
    /// register (paper §3.4 argues index-first; the ablation quantifies
    /// why).
    pub patch_base_first: bool,
    /// Ablation: skip the address-equality guard of §5.2. DANGEROUS — this
    /// is exactly how heuristic recoveries (RCV/LetGo) manufacture SDCs.
    pub skip_equality_guard: bool,
}

/// The paper's fixed memory overhead (27 MB), mostly the LLVM + protobuf
/// slices Safeguard links for table decoding.
pub const SAFEGUARD_RESIDENT_BYTES: u64 = 27 * 1024 * 1024;

impl Safeguard {
    /// "Install the signal handler": constructing the value is the analogue
    /// of the `LD_PRELOAD` constructor calling `sigaction` (a few
    /// microseconds; nothing else happens until a fault).
    pub fn new() -> Safeguard {
        Safeguard::with_index(Arc::new(RecoveryIndex::new()))
    }

    /// Install the handler over a pre-built (possibly shared) recovery
    /// index. Campaigns build the index once in preparation and hand every
    /// per-injection Safeguard a clone of the same `Arc`.
    pub fn with_index(index: Arc<RecoveryIndex>) -> Safeguard {
        Safeguard {
            index,
            cost: CostModel::default(),
            patch_base_first: false,
            skip_equality_guard: false,
        }
    }

    /// Register Armor's output for the module loaded as `module_id` in the
    /// target process (the executable and each CARE-built library register
    /// separately, as in §5.5's BLAS experiment). Unshares the index if it
    /// was shared.
    pub fn protect(&mut self, module_id: ModuleId, armor_out: &ArmorOutput) {
        Arc::make_mut(&mut self.index).add(module_id, armor_out);
    }

    /// Total bytes held for protection artefacts (tables; kernels live on
    /// disk until a fault, per the lazy-loading design).
    pub fn table_bytes(&self) -> u64 {
        self.index.table_bytes()
    }

    /// Algorithm 1. `process` must be frozen at a trap.
    pub fn handle_trap(&mut self, process: &mut Process, trap: Trap) -> RecoveryOutcome {
        self.handle_trap_with_hooks(process, trap, &telemetry::NoTelemetry)
    }

    /// [`handle_trap`](Self::handle_trap) with telemetry hooks.
    ///
    /// With hooks enabled, a successful recovery records a span per
    /// Algorithm 1 phase (`recovery.<phase>_ns`: diagnose/PC→key, table
    /// decode, library load, parameter fetch, kernel execution, disassemble
    /// and register patch) plus the preparation fraction in basis points
    /// (`recovery.prep_bp`). Phase spans carry the **modelled** CostModel
    /// milliseconds converted to nanoseconds — deterministic by
    /// construction, so a telemetry-enabled campaign reproduces the same
    /// distribution on every run and the >98 %-preparation claim becomes a
    /// measured, reproducible histogram rather than one arithmetic check.
    /// The only wall-clock sample is `safeguard.handler_wall_ns` (the
    /// simulator's own handler overhead).
    pub fn handle_trap_with_hooks(
        &mut self,
        process: &mut Process,
        trap: Trap,
        hooks: &dyn telemetry::Hooks,
    ) -> RecoveryOutcome {
        let wall = hooks.enabled().then(std::time::Instant::now);
        let out = self.handle_inner(process, trap);
        if let Some(wall) = wall {
            hooks.add("recovery.activations", 1);
            hooks.record("safeguard.handler_wall_ns", wall.elapsed().as_nanos() as u64);
        }
        match &out {
            RecoveryOutcome::Recovered { time } => {
                if hooks.enabled() {
                    hooks.add("recovery.recovered", 1);
                    let ns = |ms: f64| (ms * 1e6) as u64;
                    hooks.record("recovery.diagnose_ns", ns(time.diagnose_ms));
                    hooks.record("recovery.table_ns", ns(time.table_ms));
                    hooks.record("recovery.load_ns", ns(time.load_ms));
                    hooks.record("recovery.params_ns", ns(time.params_ms));
                    hooks.record("recovery.kernel_ns", ns(time.kernel_ms));
                    hooks.record("recovery.patch_ns", ns(time.patch_ms));
                    hooks.record("recovery.total_ns", ns(time.total_ms()));
                    let bp = time.preparation_bp();
                    hooks.record("recovery.prep_bp", bp);
                    if bp > 9800 {
                        hooks.add("recovery.prep_over_98pct", 1);
                    }
                    hooks.emit(
                        telemetry::Event::new("recovery")
                            .field("pc", trap.pc)
                            .field("total_ms", time.total_ms())
                            .field("prep_bp", bp)
                            .field("kernel_ns", ns(time.kernel_ms)),
                    );
                }
            }
            RecoveryOutcome::NotRecovered(r) => {
                if hooks.enabled() {
                    hooks.add("recovery.declined", 1);
                    hooks.add(r.kind().counter_name(), 1);
                }
            }
        }
        out
    }

    fn handle_inner(&mut self, process: &mut Process, trap: Trap) -> RecoveryOutcome {
        use RecoveryOutcome::NotRecovered;
        let mut time = RecoveryTime::default();

        // (1)(2) Which signal, which module?
        let TrapKind::Segv(fault_addr) = trap.kind else {
            return NotRecovered(DeclineReason::NotASegv);
        };
        let Some((mid, offset)) = process.image.dladdr(trap.pc) else {
            return NotRecovered(DeclineReason::UnknownPc);
        };
        time.diagnose_ms += self.cost.diagnose_ms;
        let Some(prot) = self.index.modules.get(&mid.0) else {
            return NotRecovered(DeclineReason::UnprotectedModule);
        };

        // (3) PC -> (file, line, col) key. `dladdr` answered for this module
        // id, but a hostile/stale trap context could still name a module the
        // image does not hold — treat that like a wild PC, not a panic.
        let Some(lm) = process.image.modules.get(mid.0 as usize) else {
            return NotRecovered(DeclineReason::UnknownPc);
        };
        let Some(loc) = lm.module.debug.loc_for_offset(offset) else {
            return NotRecovered(DeclineReason::NoLineInfo);
        };
        let key = RecoveryKey::for_loc(&lm.module.ir, loc);

        // (4) Decode the table (memoized across traps) and look up the
        // kernel. The *modelled* decode cost is still charged per trap —
        // the real runtime re-decodes on each fault — so recovery-time
        // figures are unchanged; only the simulator's own wall clock wins.
        let table = match prot.table() {
            Ok(t) => t,
            Err(e) => return NotRecovered(DeclineReason::BadTable(e.clone())),
        };
        time.table_ms +=
            (prot.encoded_table.len() as f64 / 1024.0) * self.cost.table_decode_per_kib_ms;
        let Some(entry) = table.lookup(&key) else {
            return NotRecovered(DeclineReason::NoKernelForKey(format!(
                "{}:{}:{}",
                lm.module.ir.file_name(loc.file),
                loc.line,
                loc.col
            )));
        };

        // (5) dlopen + dlsym. A table entry naming a kernel the library does
        // not define (or only declares) is a dlsym miss: decline, don't
        // panic in the arena lookup below.
        let kfid = entry.kernel;
        match prot.kernel_module.funcs.get(kfid.0 as usize) {
            None => return NotRecovered(DeclineReason::KernelMissing(entry.symbol.clone())),
            Some(f) if f.is_decl => {
                return NotRecovered(DeclineReason::KernelMissing(entry.symbol.clone()))
            }
            Some(f) if f.params.len() != entry.params.len() => {
                return NotRecovered(DeclineReason::BadTable(format!(
                    "entry for {} passes {} params, kernel takes {}",
                    entry.symbol,
                    entry.params.len(),
                    f.params.len()
                )));
            }
            Some(_) => {}
        }
        time.load_ms += self.cost.dlopen_base_ms
            + prot.kernel_count as f64 * self.cost.dlopen_per_kernel_ms
            + self.cost.dlsym_ms;

        // (6) Fetch parameters via DWARF locations. A process with no live
        // frame has no registers to read from (trap delivered before main
        // ran, or after the last frame popped): nothing to repair.
        if process.frames.is_empty() {
            return NotRecovered(DeclineReason::UnknownPc);
        }
        let fp = process.read_reg(FP);
        let mut args = Vec::with_capacity(entry.params.len());
        for spec in &entry.params {
            time.params_ms += self.cost.param_fetch_ms;
            let bits = match spec {
                ParamSpec::Const(v) => *v,
                ParamSpec::GlobalAddr { name } => match process.image.global_addr_by_name(name) {
                    Some(a) => a,
                    None => return NotRecovered(DeclineReason::ParamUnavailable(name.clone())),
                },
                ParamSpec::Die { name } => match lm.module.debug.var_place(name, offset) {
                    Some(VarPlace::Reg(r)) => process.read_reg(r),
                    Some(VarPlace::FrameOffset(off)) => {
                        match process.mem.load(fp.wrapping_add(off as u64), 8) {
                            Ok(v) => v,
                            Err(_) => return NotRecovered(DeclineReason::ParamFetchFault),
                        }
                    }
                    None => return NotRecovered(DeclineReason::ParamUnavailable(name.clone())),
                },
            };
            args.push(bits);
        }
        time.params_ms += self.cost.ffi_setup_ms;

        // (7) Execute the kernel over the process's memory ("ffi_call").
        let globals = lm.global_addrs.clone();
        let kernel_mod = &prot.kernel_module;
        let mut interp = tinyir::interp::Interp::new(
            kernel_mod,
            &mut process.mem,
            &globals,
            // Scratch stack window for the handler frame, far from the app.
            0x7abc_0000_0000,
            0x7abc_0010_0000,
            0x7abd_0000_0000,
            100_000,
        );
        let kernel_addr = match interp.call(entry.kernel, &args) {
            Ok(Some(v)) => v,
            Ok(None) | Err(_) => return NotRecovered(DeclineReason::KernelFault),
        };
        time.kernel_ms += interp.steps as f64 * self.cost.kernel_per_instr_ms;

        // (8) The no-SDC guard.
        if kernel_addr == fault_addr && !self.skip_equality_guard {
            return NotRecovered(DeclineReason::SameAddress);
        }

        // (9) Find which operand of the faulting instruction refers to
        // memory (the capstone/udis86 step; SimISA keeps instructions
        // decoded, so there is nothing to disassemble), then patch it.
        let Some(inst) = process.current_inst() else {
            return NotRecovered(DeclineReason::UnknownPc);
        };
        let Some(mem) = inst.mem_operand().copied() else {
            return NotRecovered(DeclineReason::NoMemOperand);
        };
        let patch = if self.patch_base_first {
            compute_patch_base_first(&mem, kernel_addr, |r| process.read_reg(r))
        } else {
            compute_patch(&mem, kernel_addr, |r| process.read_reg(r))
        };
        match patch {
            Some((reg, value)) => {
                process.write_reg(reg, value);
                // Paranoia: after the patch the operand must resolve to the
                // kernel-computed address.
                debug_assert_eq!(
                    mem.effective(|r| process.read_reg(r)),
                    kernel_addr,
                    "patch arithmetic"
                );
                time.patch_ms += self.cost.patch_resume_ms;
                RecoveryOutcome::Recovered { time }
            }
            None => NotRecovered(DeclineReason::UnpatchableOperand),
        }
    }
}

impl Default for Safeguard {
    fn default() -> Self {
        Safeguard::new()
    }
}

/// Decide which register of `disp(base,index,scale)` to patch and with what
/// value so the operand resolves to `target`.
///
/// Per the paper: the **index register is updated by default** (indexes are
/// recomputed more often than bases and are therefore the likelier victims),
/// recomputing it from the base register's value; if the operand has no
/// index, the base register is patched instead.
pub fn compute_patch(
    mem: &MemOp,
    target: u64,
    read: impl Fn(simx::Reg) -> u64,
) -> Option<(simx::Reg, u64)> {
    match (mem.base, mem.index) {
        (base, Some(idx)) => {
            let base_val = base.map(&read).unwrap_or(0);
            let delta = target.wrapping_sub(base_val).wrapping_sub(mem.disp as u64);
            let scale = mem.scale.max(1) as u64;
            if delta % scale == 0 {
                Some((idx, delta / scale))
            } else if let Some(b) = base {
                // Index cannot express the target (scale mismatch): fall
                // back to repairing the base register.
                let idx_val = read(idx).wrapping_mul(scale);
                Some((b, target.wrapping_sub(idx_val).wrapping_sub(mem.disp as u64)))
            } else {
                None
            }
        }
        (Some(b), None) => Some((b, target.wrapping_sub(mem.disp as u64))),
        (None, None) => None,
    }
}

/// The base-first variant used by the patching-strategy ablation.
pub fn compute_patch_base_first(
    mem: &MemOp,
    target: u64,
    read: impl Fn(simx::Reg) -> u64,
) -> Option<(simx::Reg, u64)> {
    match (mem.base, mem.index) {
        (Some(b), index) => {
            let idx_val = index.map(|i| read(i).wrapping_mul(mem.scale.max(1) as u64)).unwrap_or(0);
            Some((b, target.wrapping_sub(idx_val).wrapping_sub(mem.disp as u64)))
        }
        (None, Some(_)) => compute_patch(mem, target, read),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simx::Reg;

    #[test]
    fn patch_prefers_index_register() {
        let mem = MemOp::base_index(Reg::gpr(3), Reg::gpr(8), 8, 16);
        let read = |r: Reg| match r.0 {
            3 => 0x1000u64,
            8 => 999, // corrupted index
            _ => 0,
        };
        let (reg, val) = compute_patch(&mem, 0x1000 + 5 * 8 + 16, read).unwrap();
        assert_eq!(reg, Reg::gpr(8));
        assert_eq!(val, 5);
    }

    #[test]
    fn patch_falls_back_to_base_on_scale_mismatch() {
        let mem = MemOp::base_index(Reg::gpr(3), Reg::gpr(8), 8, 0);
        let read = |r: Reg| match r.0 {
            3 => 0x1000u64,
            8 => 2,
            _ => 0,
        };
        // Target not expressible as 0x1000 + 8k: patch base instead.
        let (reg, val) = compute_patch(&mem, 0x2003, read).unwrap();
        assert_eq!(reg, Reg::gpr(3));
        assert_eq!(val, 0x2003 - 16);
    }

    #[test]
    fn patch_base_only_operand() {
        let mem = MemOp::base_disp(Reg::gpr(5), -8);
        let (reg, val) = compute_patch(&mem, 0x5000, |_| 0xdead).unwrap();
        assert_eq!(reg, Reg::gpr(5));
        assert_eq!(val, 0x5008);
    }

    #[test]
    fn absolute_operand_cannot_be_patched() {
        let mem = MemOp { base: None, index: None, scale: 1, disp: 0x1234 };
        assert!(compute_patch(&mem, 0x5000, |_| 0).is_none());
    }
}
