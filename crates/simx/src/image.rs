//! Machine modules and the loaded process image.
//!
//! A [`MachineModule`] is the output of the SimISA backend for one TinyIR
//! module (the executable, or a shared library such as the simulated BLAS or
//! a recovery-kernel library). A [`ProcessImage`] is the runtime view: each
//! module loaded at a base address, with `dladdr`-style reverse lookup from
//! a PC to the owning module — the mechanism Safeguard uses to decide
//! whether to key by absolute PC (executable) or by `PC - base` (shared
//! library), exactly as in paper §4.

use crate::debug::DebugData;
use crate::isa::{MInst, INST_BYTES};
use std::collections::HashMap;
use std::sync::Arc;
use tinyir::{DebugLoc, FuncId};

/// A compiled function: instructions plus frame metadata.
#[derive(Clone, Debug)]
pub struct MachineFunction {
    /// Symbol name (matches the TinyIR function name).
    pub name: String,
    /// Instructions; instruction `i` sits at `code_offset + 4*i`.
    pub instrs: Vec<MInst>,
    /// Per-instruction source location (same indexing as `instrs`). For an
    /// instruction with a folded memory operand this is the location of the
    /// *memory access* it absorbs.
    pub locs: Vec<Option<DebugLoc>>,
    /// Frame size in bytes (stack slots live at `FP + [0, frame_size)`).
    pub frame_size: u64,
    /// Module-relative offset of the first instruction.
    pub code_offset: u64,
    /// True for unresolved external declarations (no code).
    pub is_decl: bool,
}

impl MachineFunction {
    /// Module-relative offset of instruction `idx`.
    pub fn offset_of(&self, idx: usize) -> u64 {
        self.code_offset + idx as u64 * INST_BYTES
    }
}

/// A compiled TinyIR module: functions, debug data and the source module
/// (kept for global layout and for executing recovery kernels over IR).
#[derive(Clone, Debug)]
pub struct MachineModule {
    /// Module name.
    pub name: String,
    /// Compiled functions, index-aligned with the TinyIR module's functions.
    pub funcs: Vec<MachineFunction>,
    /// Simulated DWARF (line table + variable DIEs), offsets module-relative.
    pub debug: DebugData,
    /// The TinyIR module this was compiled from.
    pub ir: tinyir::Module,
    /// Total code size in bytes.
    pub code_size: u64,
}

impl MachineModule {
    /// Find the function and instruction index at a module-relative offset.
    pub fn locate(&self, offset: u64) -> Option<(FuncId, usize)> {
        for (fi, f) in self.funcs.iter().enumerate() {
            if f.is_decl {
                continue;
            }
            let end = f.code_offset + f.instrs.len() as u64 * INST_BYTES;
            if offset >= f.code_offset && offset < end {
                let idx = ((offset - f.code_offset) / INST_BYTES) as usize;
                return Some((FuncId(fi as u32), idx));
            }
        }
        None
    }

    /// Find a defined function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs.iter().position(|f| f.name == name).map(|i| FuncId(i as u32))
    }
}

/// Identifier of a loaded module within a process image.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ModuleId(pub u32);

/// A module mapped into the simulated address space.
///
/// The compiled module is behind an `Arc`: every process built from the
/// same compiled app shares one copy of the code, debug data and IR, so
/// loading a module is O(globals), not O(module size). This is what makes
/// per-injection process construction and snapshot-forking cheap.
#[derive(Clone, Debug)]
pub struct LoadedModule {
    /// The compiled module (shared, immutable).
    pub module: Arc<MachineModule>,
    /// Load base address.
    pub base: u64,
    /// Address of each TinyIR global (index = `GlobalId`).
    pub global_addrs: Vec<u64>,
    /// True if loaded as a shared library (keyed by `PC - base`), false for
    /// the main executable (keyed by absolute PC).
    pub is_shared: bool,
}

/// The process image: all loaded modules plus cross-module symbol
/// resolution.
#[derive(Clone, Debug, Default)]
pub struct ProcessImage {
    /// Loaded modules in load order; index = [`ModuleId`].
    pub modules: Vec<LoadedModule>,
    /// Resolution of `(module, func)` declarations to their defining
    /// `(module, func)` (the dynamic-linker PLT).
    pub plt: HashMap<(ModuleId, FuncId), (ModuleId, FuncId)>,
}

impl ProcessImage {
    /// Register a loaded module. Call [`ProcessImage::link`] after the last
    /// one.
    pub fn push_module(&mut self, lm: LoadedModule) -> ModuleId {
        self.modules.push(lm);
        ModuleId(self.modules.len() as u32 - 1)
    }

    /// Resolve every function declaration against the other modules'
    /// definitions (by symbol name). Unresolved symbols are left out of the
    /// PLT; calling them traps.
    pub fn link(&mut self) {
        let mut defs: HashMap<String, (ModuleId, FuncId)> = HashMap::new();
        for (mi, lm) in self.modules.iter().enumerate() {
            for (fi, f) in lm.module.funcs.iter().enumerate() {
                if !f.is_decl {
                    defs.entry(f.name.clone()).or_insert((ModuleId(mi as u32), FuncId(fi as u32)));
                }
            }
        }
        for (mi, lm) in self.modules.iter().enumerate() {
            for (fi, f) in lm.module.funcs.iter().enumerate() {
                if f.is_decl {
                    if let Some(&target) = defs.get(&f.name) {
                        self.plt.insert((ModuleId(mi as u32), FuncId(fi as u32)), target);
                    }
                }
            }
        }
    }

    /// Resolve a call target through the PLT.
    pub fn resolve(&self, m: ModuleId, f: FuncId) -> Option<(ModuleId, FuncId)> {
        let lm = &self.modules[m.0 as usize];
        if !lm.module.funcs[f.0 as usize].is_decl {
            return Some((m, f));
        }
        self.plt.get(&(m, f)).copied()
    }

    /// `dladdr`: which module contains this absolute PC, and what is the
    /// module-relative offset?
    pub fn dladdr(&self, pc: u64) -> Option<(ModuleId, u64)> {
        for (mi, lm) in self.modules.iter().enumerate() {
            if pc >= lm.base && pc < lm.base + lm.module.code_size {
                return Some((ModuleId(mi as u32), pc - lm.base));
            }
        }
        None
    }

    /// Locate the function + instruction index at an absolute PC.
    pub fn locate_pc(&self, pc: u64) -> Option<(ModuleId, FuncId, usize)> {
        let (mid, off) = self.dladdr(pc)?;
        let (fid, idx) = self.modules[mid.0 as usize].module.locate(off)?;
        Some((mid, fid, idx))
    }

    /// Absolute address of instruction `idx` of `(module, func)`.
    pub fn addr_of(&self, m: ModuleId, f: FuncId, idx: usize) -> u64 {
        let lm = &self.modules[m.0 as usize];
        lm.base + lm.module.funcs[f.0 as usize].offset_of(idx)
    }

    /// Access a loaded module.
    pub fn module(&self, m: ModuleId) -> &LoadedModule {
        &self.modules[m.0 as usize]
    }

    /// Find the address of a global variable by name across all modules.
    pub fn global_addr_by_name(&self, name: &str) -> Option<u64> {
        for lm in &self.modules {
            if let Some(g) = lm.module.ir.global_by_name(name) {
                return Some(lm.global_addrs[g.0 as usize]);
            }
        }
        None
    }
}

/// Conventional load base for the main executable.
pub const EXE_BASE: u64 = 0x0040_0000;
/// Conventional load base for the first shared library; subsequent libraries
/// are placed above it.
pub const LIB_BASE: u64 = 0x7f80_0000_0000;
/// Base of the global-data arena for the executable.
pub const DATA_BASE: u64 = 0x1000_0000;
/// Stack top (the stack grows downward from here).
pub const STACK_TOP: u64 = 0x7fff_f000_0000;
/// Stack size in bytes.
pub const STACK_SIZE: u64 = 32 * 1024 * 1024;
/// Heap base for `malloc`.
pub const HEAP_BASE: u64 = 0x6000_0000_0000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::MInst;

    fn dummy_module(name: &str, funcs: &[(&str, usize, bool)]) -> MachineModule {
        let mut off = 0u64;
        let fs = funcs
            .iter()
            .map(|(n, len, is_decl)| {
                let f = MachineFunction {
                    name: n.to_string(),
                    instrs: vec![MInst::Ret { src: None }; *len],
                    locs: vec![None; *len],
                    frame_size: 0,
                    code_offset: off,
                    is_decl: *is_decl,
                };
                if !is_decl {
                    off += *len as u64 * INST_BYTES + 64;
                }
                f
            })
            .collect();
        MachineModule {
            name: name.into(),
            funcs: fs,
            debug: DebugData::default(),
            ir: tinyir::Module::new(name),
            code_size: off,
        }
    }

    #[test]
    fn locate_by_offset() {
        let m = dummy_module("exe", &[("a", 3, false), ("b", 2, false)]);
        assert_eq!(m.locate(0), Some((FuncId(0), 0)));
        assert_eq!(m.locate(8), Some((FuncId(0), 2)));
        let b_off = m.funcs[1].code_offset;
        assert_eq!(m.locate(b_off + 4), Some((FuncId(1), 1)));
        assert_eq!(m.locate(9999), None);
    }

    #[test]
    fn dladdr_and_plt_resolution() {
        let exe = dummy_module("exe", &[("main", 3, false), ("ddot", 0, true)]);
        let lib = dummy_module("libblas", &[("ddot", 5, false)]);
        let mut img = ProcessImage::default();
        let e = img.push_module(LoadedModule {
            module: Arc::new(exe),
            base: EXE_BASE,
            global_addrs: vec![],
            is_shared: false,
        });
        let l = img.push_module(LoadedModule {
            module: Arc::new(lib),
            base: LIB_BASE,
            global_addrs: vec![],
            is_shared: true,
        });
        img.link();
        // dladdr distinguishes exe and lib PCs.
        assert_eq!(img.dladdr(EXE_BASE + 4), Some((e, 4)));
        assert_eq!(img.dladdr(LIB_BASE + 8), Some((l, 8)));
        assert_eq!(img.dladdr(0xdead_0000), None);
        // The exe's `ddot` declaration resolves into the library.
        assert_eq!(img.resolve(e, FuncId(1)), Some((l, FuncId(0))));
        // Defined functions resolve to themselves.
        assert_eq!(img.resolve(e, FuncId(0)), Some((e, FuncId(0))));
    }

    #[test]
    fn addr_round_trip() {
        let exe = dummy_module("exe", &[("main", 4, false)]);
        let mut img = ProcessImage::default();
        let e = img.push_module(LoadedModule {
            module: Arc::new(exe),
            base: EXE_BASE,
            global_addrs: vec![],
            is_shared: false,
        });
        let pc = img.addr_of(e, FuncId(0), 2);
        assert_eq!(img.locate_pc(pc), Some((e, FuncId(0), 2)));
    }
}
