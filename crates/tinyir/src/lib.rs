//! # TinyIR — the SSA intermediate representation underpinning the CARE reproduction
//!
//! TinyIR is a deliberately LLVM-shaped SSA IR: functions of basic blocks,
//! instructions that define values, explicit `load`/`store`/`gep` memory
//! operations, `phi` nodes, and `(file, line, col)` debug locations. It is
//! the representation on which the **Armor** compiler pass (crate `armor`)
//! extracts recovery kernels, and from which the **SimISA** backend (crate
//! `simx`) generates simulated machine code.
//!
//! The crate provides:
//!
//! * the data model ([`Module`], [`Function`], [`Instr`], [`Value`], [`Ty`]),
//! * an ergonomic [`builder::ModuleBuilder`] used by the `workloads` crate,
//! * a textual [`display`] printer and [`parser`] (round-trip tested),
//! * the control-flow graph ([`cfg::Cfg`]) and dominator tree
//!   ([`dom::DomTree`]) that the [`verify`] pass and the compiler share,
//! * a structural [`verify`] pass,
//! * a reference [`interp`] interpreter over [`mem::PagedMemory`].

pub mod builder;
pub mod cfg;
pub mod debugloc;
pub mod display;
pub mod dom;
pub mod instr;
pub mod interp;
pub mod mem;
pub mod module;
pub mod parser;
pub mod types;
pub mod value;
pub mod verify;

pub use debugloc::{DebugLoc, FileId};
pub use instr::{BinOp, Callee, CastOp, FCmp, ICmp, Instr, InstrKind, Intrinsic};
pub use module::{Block, Function, Global, GlobalInit, Module};
pub use types::Ty;
pub use value::{BlockId, FuncId, GlobalId, InstrId, Value};
