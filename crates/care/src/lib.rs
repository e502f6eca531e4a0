//! # care — the public face of the CARE reproduction
//!
//! CARE (SC '19) lets scientific applications survive crash-causing
//! transient faults: a compiler pass (**Armor**, crate `armor`) clones every
//! memory access's address computation into a *recovery kernel*, and a
//! runtime (**Safeguard**, crate `safeguard`) catches `SIGSEGV`, recomputes
//! the corrupted address with the matching kernel and patches the faulting
//! instruction's index register.
//!
//! This crate wires the whole pipeline together:
//!
//! ```
//! use care::prelude::*;
//! use tinyir::builder::ModuleBuilder;
//! use tinyir::{Ty, Value};
//!
//! // A tiny app with a real address computation.
//! let mut mb = ModuleBuilder::new("demo", "demo.c");
//! let g = mb.global_init("t", Ty::I64, 32, tinyir::GlobalInit::I64s((0..32).collect()));
//! mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
//!     let idx = fb.mul(fb.arg(0), Value::i64(3), Ty::I64);
//!     let v = fb.load_elem(fb.global(g), idx, Ty::I64);
//!     fb.ret(Some(v));
//! });
//! let module = mb.finish();
//!
//! // Compile with CARE at -O1, build a protected process, run it.
//! let app = care::compile(&module, OptLevel::O1);
//! let (mut process, mut sg) = care::protected_process(&app, &[]);
//! process.start("main", &[5]);
//! match run_protected(&mut process, &mut sg, 8) {
//!     ProtectedExit::Completed { result, .. } => assert_eq!(result, Some(15)),
//!     other => panic!("{other:?}"),
//! }
//! ```

pub mod pipeline;

pub use pipeline::{
    build_process, compile, compile_baseline, compile_with, memory_overhead, protected_process,
    BuildStats, CompiledApp, MemoryOverhead,
};

// The observability layer rides along with the facade so downstream users
// can attach a recorder to the `*_with_hooks` entry points without naming
// the crate themselves.
pub use telemetry;

/// Convenient re-exports for downstream users.
pub mod prelude {
    pub use crate::pipeline::{compile, compile_baseline, protected_process, CompiledApp};
    pub use armor::{ArmorOutput, ArmorStats, RecoveryTable};
    pub use opt::OptLevel;
    pub use safeguard::{run_protected, DeclineReason, ProtectedExit, RecoveryOutcome, Safeguard};
    pub use simx::{Instrument, ModuleId, Process, RunExit, Trap, TrapKind};
    pub use telemetry::{Hooks, NoTelemetry, Recorder};
}
