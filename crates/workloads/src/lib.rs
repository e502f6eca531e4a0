//! # workloads — the paper's scientific mini-apps, written in TinyIR
//!
//! Table 1 of the paper: HPCCG (conjugate gradient on a 3-D chimney), CoMD
//! (link-cell Lennard-Jones MD), miniMD (neighbour-list LJ MD), miniFE
//! (finite-element assembly + CG) and GTC-P (2-D gyrokinetic PIC), plus the
//! REAL level-1 BLAS library and its `sblat1` driver for §5.5.
//!
//! Each builder returns a [`spec::Workload`] carrying the module, entry
//! arguments and the output regions used for SDC classification. Problem
//! sizes are miniaturised so that a 10 000-injection campaign stays
//! tractable, while preserving the address-computation structure (Table 5)
//! that CARE exploits.

pub mod blas;
pub mod comd;
pub mod gtcp;
pub mod hpccg;
pub mod minife;
pub mod minimd;
pub mod spec;

pub use blas::BlasSetup;
pub use spec::Workload;

/// The five Table 1 workloads at campaign-scale defaults, in the paper's
/// order.
pub fn all() -> Vec<Workload> {
    vec![hpccg::default(), comd::default(), minife::default(), minimd::default(), gtcp::default()]
}

/// The four workloads evaluated in §5 (the paper skips miniFE there because
/// its C++-STL reliance exceeded the prototype; we keep it for the §2
/// tables).
pub fn evaluated() -> Vec<Workload> {
    vec![gtcp::default(), hpccg::default(), minimd::default(), comd::default()]
}
