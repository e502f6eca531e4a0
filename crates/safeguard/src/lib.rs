//! # safeguard — CARE's runtime half
//!
//! The analogue of the paper's `LD_PRELOAD`ed recovery library: a `SIGSEGV`
//! "handler" ([`runtime::Safeguard::handle_trap`], Algorithm 1), a cost
//! model for the latencies the simulation cannot measure natively
//! ([`cost::CostModel`]), and the protected-execution driver
//! ([`driver::run_protected`]) that routes SimISA traps through the handler
//! and resumes the patched process.

pub mod cost;
pub mod driver;
pub mod runtime;

pub use cost::{CostModel, RecoveryTime};
pub use driver::{resume_protected, run_protected, ProtectedExit};
pub use runtime::{
    compute_patch, compute_patch_base_first, DeclineKind, DeclineReason, RecoveryIndex,
    RecoveryOutcome, Safeguard, SAFEGUARD_RESIDENT_BYTES,
};

mod hardening;
