//! # analysis — dataflow analyses over TinyIR
//!
//! Provides liveness as bit rows per block ([`liveness::Liveness`]) and
//! use–def chains ([`usedef::UseDef`]) that the optimiser (`opt`), backend
//! (`simx`) and the Armor recovery-kernel extractor (`armor`) are built on.
//! The control-flow graph ([`Cfg`]) and dominator tree ([`DomTree`]) live in
//! `tinyir`, whose verifier reads them too; they are re-exported here.
//!
//! Liveness is the paper's centrepiece analysis: Armor's terminal-value rule
//! admits a value as a recovery-kernel parameter only if it is live at the
//! protected memory access *and* has a non-local use (paper §3.2), because
//! those are the values guaranteed to survive lowering into machine code.

pub mod liveness;
pub mod usedef;

pub use liveness::{LiveSet, Liveness};
pub use tinyir::cfg::{self, Adjacency, Cfg};
pub use tinyir::dom::{self, DomTree};
pub use usedef::{address_computation_ops, UseDef};
