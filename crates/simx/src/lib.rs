//! # simx — the SimISA simulated machine
//!
//! A vertically-integrated substitute for the paper's x86_64/Linux substrate:
//!
//! * [`isa`] — a CISC instruction set with `disp(base,index,scale)` memory
//!   operands and folded memory references;
//! * [`codegen`] — instruction selection from TinyIR with the `-O0`
//!   (stack-slot) and `-O1` (linear-scan register) disciplines;
//! * [`debug`] — simulated DWARF line tables and variable location lists;
//! * [`image`] — machine modules, shared libraries, `dladdr` and PLT;
//! * [`cpu`] — the execution engine with signal-like traps, and the
//!   [`Instrument`] a run is handed: stops (for the ptrace-style injector)
//!   and Pin-style profiling;
//! * [`translate`]/[`engine`] — the direct-threaded compiled backend behind
//!   the [`ExecutionEngine`] trait (bit-identical to the interpreter's fast
//!   loop; see DESIGN.md § compiled execution backend).
//!
//! See DESIGN.md §2 for why this substitution preserves the behaviour CARE's
//! evaluation depends on.

pub mod codegen;
pub mod cpu;
pub mod debug;
pub mod engine;
pub mod image;
pub mod isa;
pub mod translate;

pub use codegen::compile_module;
pub use cpu::{BreakSet, DestRef, Frame, Instrument, Process, Profile, RunExit, Trap, TrapKind};
pub use debug::{DebugData, DieRequest, LocEntry, VarDie, VarPlace};
pub use engine::{
    advance_to_step, run_to_step, CompiledEngine, EngineKind, ExecutionEngine, InterpEngine,
    ENGINE_VERSION,
};
pub use image::{LoadedModule, MachineFunction, MachineModule, ModuleId, ProcessImage};
pub use isa::{MInst, MemOp, Reg, Src, FP, SP};
pub use translate::{TranslateStats, TranslationCache};

#[cfg(test)]
mod tests;
